"""Command-line entry point.

Subcommands: preprocess | train-kge | train | eval | sweep | gen-synthetic.

Configuration comes from a flat ``key = value`` file ('#' starts a
comment); command-line flags and input paths override file values. Each
command takes only the flags it reads. All randomness funnels through the
single ``seed`` key. Exit codes are stable for scripting: 0 success, 1
internal failure, 2 user or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import kge as kg
from . import model as md
from . import textdata as td
from . import training as tr
from .autodiff import DegenerateInput, Diverged, ShapeMismatch


@dataclass
class RunConfig:
    """The file paths and the keys only the command line reads.

    Model, optimiser and KGE keys belong to ``HyperParams``, ``TrainConfig``
    and ``KgeConfig``, which hold their types, defaults and valid ranges.
    """

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
    seed: int = 0
    folds: int = 0
    val_fraction: float = 0.25
    no_knowledge: bool = False
    holdout: float = 0.1
    stance: str = "common"

    def __post_init__(self):
        for key in ("val_fraction", "holdout"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise td.config_error((key,), f"config key {key!r} must lie in [0, 1), "
                                              f"got {getattr(self, key)}")
        if self.folds < 2 and self.folds != 0:
            raise td.config_error(("folds",), f"config key 'folds' must be 0 (off) or at "
                                              f"least 2, got {self.folds}")


# Config key -> field, per owning class. A corpus sets the model's classes,
# and the run's seed is TrainConfig's and KgeConfig's.
_KEYS = {
    cls: {prefix + f.name: f for f in fields(cls) if f.name not in skip}
    for cls, prefix, skip in ((RunConfig, "", ()), (md.HyperParams, "", ("classes",)),
                              (tr.TrainConfig, "", ("hp", "seed")),
                              (kg.KgeConfig, "kge_", ("seed",)))
}
_FIELD_TYPES = {key: f.type for keys in _KEYS.values() for key, f in keys.items()}


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# a field's type name -> the parser of its config-file value and of its flag's argument
_PARSERS = {"bool": lambda raw: _BOOLS[raw.strip().lower()], "int": int, "float": float,
            "str": str}


def parse_config_file(path) -> dict:
    """Each key the file sets -> (its value, the number of the line that set it)."""
    values = {}
    for lineno, line in td.text_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: config key {key!r} is set again "
                             f"(first at line {values[key][1]})")
        kind = _FIELD_TYPES[key]
        try:
            values[key] = _PARSERS[kind](raw), lineno
        except (KeyError, ValueError):
            raise ValueError(f"{path}:{lineno}: config key {key!r}: cannot parse {raw!r} "
                             f"as {kind}") from None
    return values


def build_config(args: argparse.Namespace) -> tuple[RunConfig, tr.TrainConfig, kg.KgeConfig]:
    """The --config file's values (``args.config_lines``), then flag overrides, each
    range-checked by the class that owns it; HyperParams ride on the TrainConfig."""
    values = {key: value for key, (value, _) in args.config_lines.items()}
    values.update((key, getattr(args, key)) for key in _FIELD_TYPES
                  if getattr(args, key, None) is not None)

    def make(cls, **fixed):
        return cls(**fixed, **{f.name: values[key] for key, f in _KEYS[cls].items()
                               if key in values})

    cfg = make(RunConfig)
    train_cfg = make(tr.TrainConfig, seed=cfg.seed, hp=make(md.HyperParams))
    return cfg, train_cfg, make(kg.KgeConfig, seed=cfg.seed)


def _require(path: str, key: str) -> Path:
    """The input file that config key ``key`` (flag ``--<key>``) names; empty or missing
    exits 2 naming the key."""
    if not path:
        raise ValueError(f"missing required path: config key {key!r} "
                         f"(--{key.replace('_', '-')}) is empty")
    p = Path(path)
    if not p.exists():
        raise ValueError(f"{key} file not found: {path}")
    return p


def _load_corpus(cfg: RunConfig) -> tuple[list[td.EncodedArticle], int, td.Vocabulary]:
    """The encoded corpus, its class count, and the vocabulary its word ids must index."""
    corpus_path = _require(cfg.corpus, "corpus")
    encoded, classes = td.load_encoded(corpus_path)
    if not encoded:
        raise ValueError(f"{corpus_path}: the encoded corpus has no article")
    vocab = td.Vocabulary.load(_require(cfg.vocab, "vocab"))
    for a in encoded:
        for ids in (a.sentences, a.title):
            outside = ids[(ids < 0) | (ids >= len(vocab))]
            if outside.size:
                raise ValueError(f"{corpus_path}: word id {outside[0]} is outside the "
                                 f"{len(vocab)}-word vocabulary {cfg.vocab}")
    return encoded, classes, vocab


def _check_titles(cfg: RunConfig, encoded: list[td.EncodedArticle], mode: str, keys):
    """Before any training: the title-level modes need a title word in every article.
    ``keys`` are the config keys that set ``mode``: none when a checkpoint did."""
    if mode in md.TITLE_MODES:
        for i, a in enumerate(encoded):
            if not a.title_mask.any():
                raise td.config_error(keys, f"{cfg.corpus}: article {i} has no title word, "
                                            f"which mode {mode} needs")


def _load_bundle(cfg: RunConfig, n_words: int, d: int) -> md.KnowledgeBundle:
    """The three tables, each n_words x d; d is the model's, so a checkpoint's for eval."""
    if cfg.no_knowledge:
        return md.zero_bundle(n_words, d)
    tables = []
    for key, path in (("table_com", cfg.table_com), ("table_lib", cfg.table_lib),
                      ("table_con", cfg.table_con)):
        if not path:
            raise ValueError(f"missing knowledge table {key!r}; pass --no-knowledge to train "
                             f"without one")
        table = kg.KnowledgeEmbeddingTable.load(_require(path, key))
        if table.n_words != n_words:
            raise ValueError(f"{path}: {key} has {table.n_words} rows but the vocabulary "
                             f"has {n_words} words")
        if table.width != d:
            raise ValueError(f"{path}: {key} width {table.width} does not match d={d}")
        tables.append(table)
    return md.KnowledgeBundle(*tables)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_preprocess(args) -> int:
    cfg, train_cfg, _ = build_config(args)
    dataset = _require(args.dataset_path or cfg.dataset, "dataset")
    articles, classes = td.load_corpus(dataset)
    vocab = td.build_vocab(articles)
    encoded = td.encode_corpus(articles, vocab, train_cfg.hp.n, train_cfg.hp.l)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab.save(out_dir / "vocab.txt")
    td.save_encoded(out_dir / "corpus.npz", encoded, classes)
    histogram = td.class_histogram(articles, classes)
    print(f"{len(articles)} articles, classes {'/'.join(str(c) for c in histogram)}")
    print(f"vocabulary size {len(vocab)}, wrote {out_dir / 'vocab.txt'} and {out_dir / 'corpus.npz'}")
    return 0


def cmd_train_kge(args) -> int:
    cfg, train_cfg, kge_cfg = build_config(args)
    triples_path = _require(args.triples or cfg.kg_common, "kg_common")
    store = kg.load_triples(triples_path, cfg.stance)
    if not store.triples:
        raise ValueError(f"{triples_path}: no triple to train on")
    links = vocab = None
    if cfg.entity_links:  # read and checked before training, so a bad file fails first
        if not cfg.vocab:
            raise td.config_error(("entity_links", "vocab"),
                                  "config key 'entity_links' needs 'vocab' to align its table")
        links_path = _require(cfg.entity_links, "entity_links")
        links = kg.load_links(links_path)
        try:
            kg.check_links(links, store)
        except ValueError as err:
            raise ValueError(f"{links_path}: {err} (not in {triples_path})") from None
        vocab = td.Vocabulary.load(_require(cfg.vocab, "vocab"))
    if store.duplicates_dropped:
        print(f"dropped {store.duplicates_dropped} duplicate triples")
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(store.triples))
    n_test = int(len(store.triples) * cfg.holdout)
    test = [store.triples[i] for i in order[:n_test]]
    train_triples = [store.triples[i] for i in order[n_test:]]

    model = kg.train_kge(replace(store, triples=train_triples), kge_cfg)

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / f"kge_{cfg.stance}.npz"
    np.savez(model_path, method=np.frombuffer(model.method.encode(), dtype=np.uint8),
             dim=np.array(model.dim), gamma=np.array(model.gamma),
             entity=model.entity, relation=model.relation,
             epoch_losses=np.array(model.epoch_losses))
    final = f"final loss {model.epoch_losses[-1]:.4f}" if model.epoch_losses else "no epoch ran"
    print(f"wrote {model_path} ({final})")

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

    if links is not None:
        table = kg.export_aligned_table(model, links, vocab, store, width=train_cfg.hp.d)
        table_path = out_dir / f"table_{cfg.stance}.txt"
        table.save(table_path)
        print(f"wrote {table_path} (coverage {int(table.coverage.sum())}/{len(vocab)})")
    return 0


def _training_inputs(args):
    """The start train and sweep share: the run and training configs, the encoded
    corpus, the knowledge bundle, and the output directory, not yet created. The
    model's classes, and its l sentences of n words, come from the corpus."""
    cfg, train_cfg, _ = build_config(args)
    encoded, classes, vocab = _load_corpus(cfg)
    if cfg.folds > len(encoded):
        raise td.config_error(("folds",), f"config key 'folds' must be at most the {len(encoded)} "
                                          f"articles of {cfg.corpus}, got {cfg.folds}")
    _check_titles(cfg, encoded, train_cfg.hp.mode, ("mode",))
    l, n = encoded[0].sentences.shape
    train_cfg = replace(train_cfg, hp=replace(train_cfg.hp, classes=classes, n=n, l=l))
    bundle = _load_bundle(cfg, len(vocab), train_cfg.hp.d)
    return cfg, train_cfg, encoded, bundle, Path(cfg.output_dir)


def cmd_train(args) -> int:
    cfg, train_cfg, encoded, bundle, out_dir = _training_inputs(args)

    if cfg.folds >= 2:
        report = tr.cross_validate(encoded, bundle, cfg.folds, train_cfg)
        out_dir.mkdir(parents=True, exist_ok=True)
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

    train_set, val_set = tr.holdout(encoded, cfg.val_fraction, cfg.seed)
    params, reports = tr.train(train_set, bundle, train_cfg, val_dataset=val_set or None)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "checkpoint.npz"
    md.save_checkpoint(ckpt_path, params, train_cfg.hp, seed=cfg.seed)
    reports_path = out_dir / "epochs.jsonl"
    with open(reports_path, "w", encoding="utf-8") as fh:
        for r in reports:
            fh.write(json.dumps(asdict(r)) + "\n")
    if reports:
        last = reports[-1]
        val_acc = f" val_acc {last.val_acc:.4f}" if val_set else ""  # nan without a val set
        print(f"epoch {last.epoch}: loss {last.loss:.4f}{val_acc} lr {last.lr:.2e}")
    print(f"wrote {ckpt_path} and {reports_path}")
    return 0


def cmd_eval(args) -> int:
    cfg = build_config(args)[0]
    encoded, classes, vocab = _load_corpus(cfg)
    params, hp, _ = md.load_checkpoint(_require(cfg.checkpoint, "checkpoint"))
    if params.word_table.shape[0] != len(vocab):
        raise ValueError(f"checkpoint {cfg.checkpoint} was trained with vocabulary size "
                         f"{params.word_table.shape[0]}, but vocabulary {cfg.vocab} has "
                         f"{len(vocab)} words")
    _check_titles(cfg, encoded, hp.mode, ())
    if classes > hp.classes:
        raise ValueError(f"{cfg.corpus} has {classes} classes, but checkpoint "
                         f"{cfg.checkpoint} predicts only {hp.classes}")
    bundle = _load_bundle(cfg, len(vocab), hp.d)
    accuracy = tr.evaluate_accuracy(params, bundle, encoded, hp)
    print(f"accuracy {accuracy:.6f} on {len(encoded)} articles")
    return 0


def _grid_values(flag: str, raw) -> list[float]:
    """The comma-separated values of a sweep grid flag, each in [0, 1], or the default
    grid if unset."""
    if not raw:
        return list(tr.DEFAULT_GRID)
    values = []
    for token in raw.split(","):
        try:
            values.append(float(token))
        except ValueError:
            raise ValueError(f"{flag}: cannot parse {token!r} as a float") from None
        if not 0.0 <= values[-1] <= 1.0:
            raise ValueError(f"{flag}: {token!r} does not lie in [0, 1]")
    return values


def cmd_sweep(args) -> int:
    alphas = _grid_values("--alphas", args.alphas)  # before any input is loaded
    betas = _grid_values("--betas", args.betas)
    cfg, train_cfg, encoded, bundle, out_dir = _training_inputs(args)
    if cfg.folds < 2:  # checked before the note, as every other input is
        tr.validation_split(encoded, cfg.val_fraction, cfg.seed)
    # one config file may serve train too, so its alpha and beta are valid
    overridden = [key for key in ("alpha", "beta") if key in args.config_lines]
    if overridden:
        print(f"note: {args.config} sets {', '.join(overridden)}; every sweep cell "
              f"overrides {'them' if len(overridden) > 1 else 'it'}", file=sys.stderr)
    grid = tr.sweep_alpha_beta(encoded, bundle, train_cfg, alphas=alphas, betas=betas,
                               folds=cfg.folds, val_fraction=cfg.val_fraction)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    cfg = build_config(args)[0]
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
    sub.set_defaults(config_lines={})  # main puts the parsed --config file here
    for key in keys:
        kind = _FIELD_TYPES[key]
        flag = "--" + key.replace("_", "-")
        if kind == "bool":
            sub.add_argument(flag, dest=key, action="store_const", const=True, default=None)
        else:
            sub.add_argument(flag, dest=key, type=_PARSERS[kind], default=None)


# the encoded corpus fixes n and l, which only preprocess sets
TRAIN_KEYS = ("corpus", "vocab", "table_com", "table_lib", "table_con", "output_dir",
              *_KEYS[tr.TrainConfig], "seed", "folds", "val_fraction",
              *(key for key in _KEYS[md.HyperParams] if key not in ("n", "l")), "no_knowledge")
SWEEP_KEYS = tuple(key for key in TRAIN_KEYS if key not in ("alpha", "beta"))  # set per cell
EVAL_KEYS = ("corpus", "vocab", "table_com", "table_lib", "table_con", "checkpoint",
             "no_knowledge")  # the model itself comes from the checkpoint


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stancenet",
        description="Knowledge-aware hierarchical attention stance classification",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # a flag matches by its full name only, so sweep takes no --alpha for --alphas
    command = functools.partial(subs.add_parser, allow_abbrev=False)

    p = command("preprocess", help="encode a JSONL article file")
    p.add_argument("dataset_path", nargs="?", help="JSONL article file")
    _add_config_flags(p, ("dataset", "n", "l", "output_dir"))
    p.set_defaults(func=cmd_preprocess)

    p = command("train-kge", help="train knowledge graph embeddings")
    p.add_argument("triples", nargs="?", help="TSV triple file")
    _add_config_flags(p, ("kg_common", "stance", *_KEYS[kg.KgeConfig], "holdout", "seed",
                          "entity_links", "vocab", "d", "output_dir"))
    p.set_defaults(func=cmd_train_kge)

    p = command("train", help="train the stance classifier")
    _add_config_flags(p, TRAIN_KEYS)
    p.set_defaults(func=cmd_train)

    p = command("eval", help="evaluate a checkpoint on an encoded corpus")
    _add_config_flags(p, EVAL_KEYS)
    p.set_defaults(func=cmd_eval)

    p = command("sweep", help="alpha/beta grid sweep")
    _add_config_flags(p, SWEEP_KEYS)
    p.add_argument("--alphas", help="comma-separated alpha grid values")
    p.add_argument("--betas", help="comma-separated beta grid values")
    p.set_defaults(func=cmd_sweep)

    p = command("gen-synthetic", help="generate a separable synthetic corpus")
    p.add_argument("--articles", type=int, default=64)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--planted", type=int, default=3)
    p.add_argument("--out", required=True)
    _add_config_flags(p, ("seed",))
    p.set_defaults(func=cmd_gen_synthetic)

    return parser


USER_ERRORS = (ValueError, OSError, Diverged)  # bad input, a path that cannot be used, divergence


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.config:
            args.config_lines = parse_config_file(args.config)
        return args.func(args)
    except Exception as err:  # anything unexpected is an internal failure (exit 1), and so
        # are ShapeMismatch and DegenerateInput: ValueErrors, but bugs in the program
        user = isinstance(err, USER_ERRORS) and not isinstance(err, (ShapeMismatch, DegenerateInput))
        # a refused config value names the --config lines that set it, unless a flag did
        lines = sorted({args.config_lines[key][1] for key in getattr(err, "config_keys", ())
                        if key in args.config_lines and getattr(args, key, None) is None})
        where = f"{args.config}:{','.join(map(str, lines))}: " if lines else ""
        print(f"error: {where}{err}" if user else f"internal error: {err!r}", file=sys.stderr)
        return 2 if user else 1


if __name__ == "__main__":
    sys.exit(main())
