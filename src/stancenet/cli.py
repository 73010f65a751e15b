"""Command-line entry point.

Subcommands: preprocess | train-kge | train | eval | sweep | gen-synthetic.

Configuration comes from a flat ``key = value`` file ('#' starts a
comment); command-line flags override file values. All randomness
funnels through the single ``seed`` key. Exit codes are stable for
scripting: 0 success, 1 internal failure, 2 user or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import kge as kg
from . import model as md
from . import textdata as td
from . import training as tr
from .autodiff import ShapeMismatch


class ConfigError(ValueError):
    """A problem with user-supplied configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    """Every tunable of the pipeline plus the file paths it consumes."""

    # paths
    dataset: str = ""
    corpus: str = ""
    vocab: str = ""
    kg_common: str = ""
    entity_links: str = ""
    table_com: str = ""
    table_lib: str = ""
    table_con: str = ""
    checkpoint: str = ""
    output_dir: str = "out"
    # optimisation
    lr: float = 1e-3
    weight_decay: float = 5e-2
    batch_size: int = 16
    epochs: int = 50
    patience: int = 5
    lr_factor: float = 0.5
    seed: int = 0
    folds: int = 0
    val_fraction: float = 0.25
    # model
    d: int = 64
    heads: int = 4
    n: int = 64
    l: int = 32
    alpha: float = 0.5
    beta: float = 0.5
    mode: str = "All"
    injection_orientation: str = "retain"
    no_knowledge: bool = False
    # knowledge embedding
    kge_method: str = "RotatE"
    kge_dim: int = 16
    kge_gamma: float = 6.0
    kge_negatives: int = 8
    kge_lr: float = 0.05
    kge_epochs: int = 100
    kge_adv_temperature: float = 1.0
    holdout: float = 0.1
    stance: str = "common"


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "bool":
            lowered = raw.strip().lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {kind}")


def parse_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _coerce(key, raw)
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """File values first, then flag overrides; validate ranges afterwards."""
    values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    for key in _FIELD_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    cfg = RunConfig(**values)
    if not (0.0 <= cfg.alpha <= 1.0):
        raise ConfigError(f"config key 'alpha' must lie in [0, 1], got {cfg.alpha}")
    if not (0.0 <= cfg.beta <= 1.0):
        raise ConfigError(f"config key 'beta' must lie in [0, 1], got {cfg.beta}")
    if cfg.mode not in md.MODES:
        raise ConfigError(f"config key 'mode' must be one of {md.MODES}, got {cfg.mode!r}")
    if not (0.0 < cfg.lr_factor < 1.0):
        raise ConfigError(f"config key 'lr_factor' must lie in (0, 1), got {cfg.lr_factor}")
    if cfg.patience < 1:
        raise ConfigError(f"config key 'patience' must be >= 1, got {cfg.patience}")
    return cfg


def _require(path: str, what: str) -> Path:
    if not path:
        raise ConfigError(f"missing required path for {what}")
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} file not found: {path}")
    return p


def _load_corpus(cfg: RunConfig) -> tuple[list[td.EncodedArticle], int, td.Vocabulary]:
    """The encoded corpus, its class count, and the vocabulary its word ids must index."""
    corpus_path = _require(cfg.corpus, "encoded corpus")
    encoded, classes = td.load_encoded(corpus_path)
    vocab = td.Vocabulary.load(_require(cfg.vocab, "vocab"))
    for a in encoded:
        for ids in (a.sentences, a.title):
            outside = ids[(ids < 0) | (ids >= len(vocab))]
            if outside.size:
                raise ConfigError(f"{corpus_path}: word id {outside[0]} is outside the "
                                  f"{len(vocab)}-word vocabulary {cfg.vocab}")
    return encoded, classes, vocab


def _hyperparams(cfg: RunConfig, classes: int) -> md.HyperParams:
    return md.HyperParams(
        d=cfg.d, heads=cfg.heads, n=cfg.n, l=cfg.l, classes=classes,
        alpha=cfg.alpha, beta=cfg.beta, mode=cfg.mode,
        injection_orientation=cfg.injection_orientation,
    )


def _train_config(cfg: RunConfig, hp: md.HyperParams) -> tr.TrainConfig:
    return tr.TrainConfig(
        lr=cfg.lr, weight_decay=cfg.weight_decay, batch_size=cfg.batch_size,
        epochs=cfg.epochs, patience=cfg.patience, lr_factor=cfg.lr_factor,
        seed=cfg.seed, hp=hp,
    )


def _load_bundle(cfg: RunConfig, n_words: int, d: int) -> md.KnowledgeBundle:
    """The three tables, each n_words x d; d is the model's, so a checkpoint's for eval."""
    if cfg.no_knowledge:
        return md.zero_bundle(n_words, d)
    tables = []
    for key, path in (("table_com", cfg.table_com), ("table_lib", cfg.table_lib),
                      ("table_con", cfg.table_con)):
        if not path:
            raise ConfigError(
                f"missing knowledge table {key!r}; pass --no-knowledge to train without one"
            )
        table = kg.KnowledgeEmbeddingTable.load(_require(path, key))
        if table.n_words != n_words:
            raise ConfigError(
                f"{key} has {table.n_words} rows but the vocabulary has {n_words} words"
            )
        if table.width != d:
            raise ConfigError(f"{key} width {table.width} does not match d={d}")
        tables.append(table)
    return md.KnowledgeBundle(*tables)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_preprocess(args) -> int:
    cfg = build_config(args)
    dataset = _require(cfg.dataset or getattr(args, "dataset_path", ""), "dataset")
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    articles, classes = td.load_corpus(dataset)
    vocab = td.build_vocab(articles)
    encoded = td.encode_corpus(articles, vocab, cfg.n, cfg.l)
    vocab.save(out_dir / "vocab.txt")
    td.save_encoded(out_dir / "corpus.npz", encoded, classes)
    histogram = td.class_histogram(articles, classes)
    print(f"{len(articles)} articles, classes {'/'.join(str(c) for c in histogram)}")
    print(f"vocabulary size {len(vocab)}, wrote {out_dir / 'vocab.txt'} and {out_dir / 'corpus.npz'}")
    return 0


def cmd_train_kge(args) -> int:
    cfg = build_config(args)
    triples_path = _require(getattr(args, "triples", None) or cfg.kg_common, "triples")
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    store = kg.load_triples(triples_path, cfg.stance)
    if store.duplicates_dropped:
        print(f"dropped {store.duplicates_dropped} duplicate triples")
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(store.triples))
    n_test = int(len(store.triples) * cfg.holdout)
    test = [store.triples[i] for i in order[:n_test]]
    train_triples = [store.triples[i] for i in order[n_test:]]

    kge_cfg = kg.KgeConfig(
        method=cfg.kge_method, dim=cfg.kge_dim, gamma=cfg.kge_gamma,
        negatives=cfg.kge_negatives, lr=cfg.kge_lr, epochs=cfg.kge_epochs,
        seed=cfg.seed, adv_temperature=cfg.kge_adv_temperature,
    )
    train_store = kg.TripleStore(store.entities, store.entity_names, store.relations,
                                 store.relation_names, train_triples, cfg.stance)
    model = kg.train_kge(train_store, kge_cfg)

    model_path = out_dir / f"kge_{cfg.stance}.npz"
    np.savez(model_path, method=np.frombuffer(model.method.encode(), dtype=np.uint8),
             dim=np.array(model.dim), gamma=np.array(model.gamma),
             lambda_modulus=np.array(model.lambda_modulus),
             lambda_phase=np.array(model.lambda_phase),
             entity=model.entity, relation=model.relation,
             epoch_losses=np.array(model.epoch_losses))
    print(f"wrote {model_path} (final loss {model.epoch_losses[-1]:.4f})")

    if not test:
        print("warning: holdout produced 0 test triples; skipping evaluation")
    else:
        metrics = kg.evaluate_completion(model, store, test)
        metrics_path = out_dir / f"kge_{cfg.stance}_metrics.csv"
        columns = ["MR", "MRR", "HITS@1", "HITS@3", "HITS@10"]
        with open(metrics_path, "w", encoding="utf-8") as fh:
            fh.write(",".join(columns) + "\n")
            fh.write(",".join(repr(metrics[c]) for c in columns) + "\n")
        print(f"wrote {metrics_path}: " + " ".join(f"{c}={metrics[c]:.4f}" for c in columns))

    if cfg.entity_links and cfg.vocab:
        links = kg.load_links(_require(cfg.entity_links, "entity_links"))
        vocab = td.Vocabulary.load(_require(cfg.vocab, "vocab"))
        table = kg.export_aligned_table(model, links, vocab, store, width=cfg.d)
        table_path = out_dir / f"table_{cfg.stance}.txt"
        table.save(table_path)
        print(f"wrote {table_path} (coverage {int(table.coverage.sum())}/{len(vocab)})")
    return 0


def cmd_train(args) -> int:
    cfg = build_config(args)
    encoded, classes, vocab = _load_corpus(cfg)
    bundle = _load_bundle(cfg, len(vocab), cfg.d)
    hp = _hyperparams(cfg, classes)
    train_cfg = _train_config(cfg, hp)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if cfg.folds >= 2:
        report = tr.cross_validate(encoded, bundle, cfg.folds, train_cfg)
        cv_path = out_dir / "cv_report.csv"
        with open(cv_path, "w", encoding="utf-8") as fh:
            fh.write("fold,accuracy\n")
            for i, acc in enumerate(report.fold_accuracies):
                fh.write(f"{i},{acc!r}\n")
            fh.write(f"mean,{report.mean!r}\n")
            fh.write(f"std,{report.std!r}\n")
        print(f"{cfg.folds}-fold accuracy: mean {report.mean:.4f} std {report.std:.4f}")
        print(f"wrote {cv_path}")
        return 0

    split = int(round(len(encoded) * cfg.val_fraction))
    order = np.random.default_rng(cfg.seed).permutation(len(encoded))
    val_set = [encoded[i] for i in order[:split]]
    train_set = [encoded[i] for i in order[split:]]
    params, reports = tr.train(train_set or encoded, bundle, train_cfg,
                               val_dataset=val_set or None)
    ckpt_path = out_dir / "checkpoint.npz"
    md.save_checkpoint(ckpt_path, params, hp, seed=cfg.seed)
    reports_path = out_dir / "epochs.jsonl"
    with open(reports_path, "w", encoding="utf-8") as fh:
        for r in reports:
            fh.write(json.dumps(r.to_json_dict()) + "\n")
    if reports:
        last = reports[-1]
        print(f"epoch {last.epoch}: loss {last.loss:.4f} val_acc {last.val_acc:.4f} "
              f"lr {last.lr:.2e}")
    print(f"wrote {ckpt_path} and {reports_path}")
    return 0


def cmd_eval(args) -> int:
    cfg = build_config(args)
    encoded, classes, vocab = _load_corpus(cfg)
    params, hp, _ = md.load_checkpoint(_require(cfg.checkpoint, "checkpoint"),
                                       expected_n_words=len(vocab))
    bundle = _load_bundle(cfg, len(vocab), hp.d)
    accuracy = tr.evaluate_accuracy(params, bundle, encoded, hp)
    print(f"accuracy {accuracy:.6f} on {len(encoded)} articles")
    return 0


def cmd_sweep(args) -> int:
    cfg = build_config(args)
    encoded, classes, vocab = _load_corpus(cfg)
    bundle = _load_bundle(cfg, len(vocab), cfg.d)
    hp = _hyperparams(cfg, classes)
    train_cfg = _train_config(cfg, hp)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    alphas = [float(x) for x in args.alphas.split(",")] if args.alphas else list(tr.DEFAULT_GRID)
    betas = [float(x) for x in args.betas.split(",")] if args.betas else list(tr.DEFAULT_GRID)
    grid = tr.sweep_alpha_beta(encoded, bundle, train_cfg, alphas=alphas, betas=betas,
                               folds=cfg.folds, val_fraction=cfg.val_fraction)
    sweep_path = out_dir / "sweep.csv"
    with open(sweep_path, "w", encoding="utf-8") as fh:
        fh.write("alpha,beta,accuracy\n")
        for i, alpha in enumerate(alphas):
            for j, beta in enumerate(betas):
                fh.write(f"{alpha},{beta},{float(grid[i, j])!r}\n")
    best = np.unravel_index(int(np.argmax(grid)), grid.shape)
    print(f"best cell: alpha={alphas[best[0]]} beta={betas[best[1]]} "
          f"accuracy={grid[best]:.4f}")
    print(f"wrote {sweep_path}")
    return 0


def cmd_gen_synthetic(args) -> int:
    cfg = build_config(args)
    articles = td.gen_synthetic(args.articles, args.classes, args.planted, seed=cfg.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    td.save_corpus(out, articles, classes=args.classes)
    histogram = td.class_histogram(articles, args.classes)
    print(f"wrote {out}: {len(articles)} articles, classes "
          f"{'/'.join(str(c) for c in histogram)}")
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def _add_config_flags(sub, keys):
    sub.add_argument("--config", help="path to a key = value config file")
    for key in keys:
        kind = _FIELD_TYPES[key]
        flag = "--" + key.replace("_", "-")
        if kind == "bool":
            sub.add_argument(flag, dest=key, action="store_const", const=True, default=None)
        elif kind == "int":
            sub.add_argument(flag, dest=key, type=int, default=None)
        elif kind == "float":
            sub.add_argument(flag, dest=key, type=float, default=None)
        else:
            sub.add_argument(flag, dest=key, default=None)


MODEL_KEYS = ("d", "heads", "n", "l", "alpha", "beta", "mode", "injection_orientation",
              "no_knowledge")
TRAIN_KEYS = ("lr", "weight_decay", "batch_size", "epochs", "patience", "lr_factor",
              "seed", "folds", "val_fraction")
PATH_KEYS = ("corpus", "vocab", "table_com", "table_lib", "table_con", "checkpoint",
             "output_dir")
EVAL_KEYS = ("corpus", "vocab", "table_com", "table_lib", "table_con", "checkpoint",
             "no_knowledge")  # the model itself comes from the checkpoint


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stancenet",
        description="Knowledge-aware hierarchical attention stance classification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("preprocess", help="encode a JSONL article file")
    p.add_argument("dataset_path", nargs="?", help="JSONL article file")
    _add_config_flags(p, ("dataset", "n", "l", "output_dir", "seed"))
    p.set_defaults(func=cmd_preprocess)

    p = subs.add_parser("train-kge", help="train knowledge graph embeddings")
    p.add_argument("triples", nargs="?", help="TSV triple file")
    _add_config_flags(p, ("kg_common", "stance", "kge_method", "kge_dim", "kge_gamma",
                          "kge_negatives", "kge_lr", "kge_epochs", "kge_adv_temperature",
                          "holdout", "seed", "entity_links", "vocab", "d", "output_dir"))
    p.set_defaults(func=cmd_train_kge)

    p = subs.add_parser("train", help="train the stance classifier")
    _add_config_flags(p, PATH_KEYS + TRAIN_KEYS + MODEL_KEYS)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("eval", help="evaluate a checkpoint on an encoded corpus")
    _add_config_flags(p, EVAL_KEYS)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("sweep", help="alpha/beta grid sweep")
    _add_config_flags(p, PATH_KEYS + TRAIN_KEYS + MODEL_KEYS)
    p.add_argument("--alphas", help="comma-separated alpha grid values")
    p.add_argument("--betas", help="comma-separated beta grid values")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("gen-synthetic", help="generate a separable synthetic corpus")
    p.add_argument("--articles", type=int, default=64)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--planted", type=int, default=3)
    p.add_argument("--out", required=True)
    _add_config_flags(p, ("seed",))
    p.set_defaults(func=cmd_gen_synthetic)

    return parser


USER_ERRORS = (ConfigError, td.CorpusFormatError, td.EncodeError, kg.TripleFormatError,
               FileNotFoundError, ValueError)


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ShapeMismatch as err:  # a ValueError, but always a bug in the program
        print(f"internal error: {err!r}", file=sys.stderr)
        return 1
    except USER_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # anything unexpected is an internal failure
        print(f"internal error: {err!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
