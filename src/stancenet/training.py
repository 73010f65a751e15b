"""Optimization and evaluation harness.

Adam with weight decay drives the classifier parameters; a plateau
scheduler halves the learning rate after `patience` consecutive epochs
without a strict improvement of the epoch-mean training loss. On top of
the single training loop sit the train/validation split, k-fold
cross-validation, the alpha/beta grid sweep, and Welch's t-test for
comparing accuracy samples.

The L2 regularizer lives only in the optimizer, as coupled weight decay
(weight_decay=5e-2 by default). Each training batch is one ``predict`` call, and
evaluation predicts EVAL_BATCH articles per call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import model as md
from .autodiff import Tape, Tensor
from . import autodiff as ad
from .model import HyperParams, KnowledgeBundle, ModelParams
from .textdata import EncodedArticle, make_folds


@dataclass
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 5e-2
    batch_size: int = 16
    epochs: int = 50
    patience: int = 5
    lr_factor: float = 0.5
    seed: int = 0
    hp: HyperParams = field(default_factory=HyperParams)

    def __post_init__(self):
        for key, ok, rule in (
                ("patience", self.patience >= 1, "be >= 1"),
                ("lr_factor", 0.0 < self.lr_factor < 1.0, "lie in (0, 1)"),
                ("batch_size", self.batch_size >= 1, "be >= 1"),
                ("epochs", self.epochs >= 0, "be >= 0"),
                ("seed", self.seed >= 0, "be >= 0"),
                ("lr", 0.0 < self.lr < math.inf, "be finite and > 0"),
                ("weight_decay", 0.0 <= self.weight_decay < math.inf, "be finite and >= 0")):
            if not ok:
                raise ValueError(f"{key} must {rule}, got {getattr(self, key)}")


@dataclass
class EpochReport:
    epoch: int
    loss: float
    val_acc: float  # nan when no validation set was given
    lr: float
    secs: float


@dataclass
class CvReport:
    fold_accuracies: list[float]
    mean: float
    std: float


# --------------------------------------------------------------------------
# Adam
# --------------------------------------------------------------------------

class AdamState:
    """First/second moment estimates plus step counts, keyed by parameter name."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: dict[str, int] = {}


_ADAM_BLOCK = 32768  # elements per row block: two block-sized scratch buffers stay in cache
ADAM_BETAS = (0.9, 0.999)  # Kingma & Ba's defaults, as constants
ADAM_EPS = 1e-8


def adam_step(
    params: Sequence[tuple[str, Tensor]],
    grads: Sequence[Optional[np.ndarray | ad.RowGrad]],
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
):
    """Bias-corrected Adam update, in place, with betas ADAM_BETAS and eps ADAM_EPS.

    Weight decay enters as an additive gradient term g + wd*x (classic L2
    coupling), the same gradient as a wd/2 * ||x||^2 loss term.

    The update runs over row blocks of each parameter with the float ops
    of ``g = (wd*x + 0.0) + grad; m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*(g*g);
    x -= lr*m_hat/(sqrt(v_hat)+eps)`` in that order, written into two
    scratch buffers, so no parameter-sized temporary is made. A
    non-finite gradient raises ``Diverged`` before its parameter, m or v
    change.

    A gradient may be an ``autodiff.RowGrad`` with sorted distinct ids, as
    ``Tape.backward`` leaves on a gathered table: every row is still
    updated, its rows are added on their own rows of g, and the finiteness
    check reads the rows alone. g is ``grad + wd*x`` up to the sign of a zero
    entry, which changes no bit of m, v or x: m starts at +0.0 and
    ``b1*m + (1-b1)*g`` is -0.0 only where m already is, and v reads g*g.
    """
    b1, b2 = ADAM_BETAS
    for (name, tensor), grad in zip(params, grads):
        if grad is None:
            continue
        row_grad = isinstance(grad, ad.RowGrad)
        stored = grad.rows if row_grad else np.atleast_1d(grad)
        # a finite sum proves every entry finite; only an overflow needs the full check
        if not np.isfinite(stored.sum()) and not np.isfinite(stored).all():
            raise ad.Diverged(f"training diverged: non-finite gradient for parameter "
                              f"{name!r}; lower lr (now {lr!r})")
        if name not in state.m:
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
            state.t[name] = 0
        state.t[name] += 1
        t = state.t[name]
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        x, m, v = (np.atleast_1d(arr) for arr in (tensor.data, state.m[name], state.v[name]))
        rows = max(1, _ADAM_BLOCK // max(1, math.prod(x.shape[1:])))
        a = np.empty((min(rows, len(x)),) + x.shape[1:])
        b = np.empty_like(a)
        for lo in range(0, len(x), rows):
            xs, ms, vs = (arr[lo : lo + rows] for arr in (x, m, v))
            a_, b_ = a[: len(xs)], b[: len(xs)]
            np.multiply(weight_decay, xs, out=a_)  # g = (wd*x + 0.0) + grad, into a
            a_ += 0.0
            if row_grad:
                i, j = np.searchsorted(grad.ids, (lo, lo + len(xs)))
                a_[grad.ids[i:j] - lo] += grad.rows[i:j]
            else:
                a_ += stored[lo : lo + rows]
            np.multiply(b1, ms, out=ms)  # m = b1*m + (1-b1)*g
            ms += np.multiply(1.0 - b1, a_, out=b_)
            np.multiply(a_, a_, out=b_)  # v = b2*v + (1-b2)*(g*g)
            np.multiply(b2, vs, out=vs)
            vs += np.multiply(1.0 - b2, b_, out=b_)
            np.divide(vs, c2, out=a_)  # a = sqrt(v_hat) + eps
            np.sqrt(a_, out=a_)
            a_ += ADAM_EPS
            np.divide(ms, c1, out=b_)  # x -= lr*m_hat / a
            b_ *= lr
            b_ /= a_
            xs -= b_


# --------------------------------------------------------------------------
# Plateau scheduler
# --------------------------------------------------------------------------

@dataclass
class PlateauState:
    lr: float
    patience: int
    factor: float
    best: float = np.inf
    bad_epochs: int = 0


def plateau_step(state: PlateauState, epoch_loss: float) -> float:
    """Track the best loss; halve the lr after `patience` non-improving epochs.

    Improvement means strictly smaller than the best loss seen so far. The
    counter resets on improvement and after every reduction.
    """
    if not np.isfinite(epoch_loss):
        raise ValueError(f"epoch loss must be finite, got {epoch_loss}")
    if epoch_loss < state.best:
        state.best = epoch_loss
        state.bad_epochs = 0
    else:
        state.bad_epochs += 1
        if state.bad_epochs >= state.patience:
            state.lr *= state.factor
            state.bad_epochs = 0
    return state.lr


# --------------------------------------------------------------------------
# Training loop
# --------------------------------------------------------------------------

EVAL_BATCH = 16  # articles per evaluation predict call: the default training batch


def batch_loss(batch: Sequence[EncodedArticle], params: ModelParams, bundle: KnowledgeBundle,
               hp: HyperParams) -> Tensor:
    """The mean cross-entropy of a batch, from one ``predict`` call."""
    probs = md.predict(batch, params, bundle, hp)
    return ad.scale(md.cross_entropy(probs, [a.label for a in batch]), 1.0 / len(batch))


def train(
    dataset: list[EncodedArticle],
    bundle: KnowledgeBundle,
    cfg: TrainConfig,
    val_dataset: Optional[list[EncodedArticle]] = None,
) -> tuple[ModelParams, list[EpochReport]]:
    """Mini-batch training; returns final parameters and one report per epoch.

    Each batch runs forward in one ``predict`` call and backward once over the mean
    loss.
    Shuffling, initialisation, and therefore every report field except
    wall-clock seconds are fully determined by (cfg, seed). In mode All the first
    ``predict`` refuses a bundle that does not fit the model (``model.inject_knowledge``),
    before any update; with epochs=0 none runs, so none is refused.
    """
    if not dataset:
        raise ValueError("cannot train on an empty dataset")
    hp = cfg.hp
    params = md.init_params(bundle.n_words, hp, seed=cfg.seed)
    named = list(params.named())
    state = AdamState()
    sched = PlateauState(lr=cfg.lr, patience=cfg.patience, factor=cfg.lr_factor)
    rng = np.random.default_rng(cfg.seed)
    reports: list[EpochReport] = []

    # a diverging run overflows, in its batches and its validation, before adam_step's
    # gradient check names the cause; the check is the one report
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(cfg.epochs):
            start = time.perf_counter()
            order = rng.permutation(len(dataset))
            total_loss = 0.0
            lr_used = sched.lr
            for lo in range(0, len(order), cfg.batch_size):
                batch = [dataset[i] for i in order[lo : lo + cfg.batch_size]]
                with Tape() as tape:
                    loss = batch_loss(batch, params, bundle, hp)
                    tape.backward(loss)
                total_loss += float(loss.data) * len(batch)
                adam_step(named, [t.grad for _, t in named], state, lr_used,
                          weight_decay=cfg.weight_decay)
                params.zero_grads()
            epoch_loss = total_loss / len(dataset)
            plateau_step(sched, epoch_loss)
            val_acc = (evaluate_accuracy(params, bundle, val_dataset, hp)
                       if val_dataset else float("nan"))
            reports.append(EpochReport(epoch, epoch_loss, val_acc, lr_used,
                                       time.perf_counter() - start))
    return params, reports


def evaluate_accuracy(
    params: ModelParams,
    bundle: KnowledgeBundle,
    dataset: list[EncodedArticle],
    hp: HyperParams,
) -> float:
    """Fraction of articles whose argmax prediction matches the label, from one
    ``predict`` call per EVAL_BATCH consecutive articles, which bounds the memory a
    large dataset takes.

    Ties go to the lowest class id (numpy argmax takes the first maximum). In mode All
    ``predict`` refuses a bundle that does not fit ``params`` (``model.inject_knowledge``).
    """
    if not dataset:
        raise ValueError("cannot evaluate on an empty dataset")
    hits = 0
    for lo in range(0, len(dataset), EVAL_BATCH):
        part = dataset[lo : lo + EVAL_BATCH]
        probs = md.predict(part, params, bundle, hp).data
        hits += int((probs.argmax(axis=1) == [a.label for a in part]).sum())
    return hits / len(dataset)


def cross_validate(
    corpus: list[EncodedArticle],
    bundle: KnowledgeBundle,
    k: int,
    cfg: TrainConfig,
) -> CvReport:
    """Train on each fold's complement and evaluate on the fold, in fold order.

    Folds come from make_folds(len(corpus), k, cfg.seed).
    """
    accuracies = []
    for fold in make_folds(len(corpus), k, cfg.seed):
        held = set(fold)
        train_set = [a for i, a in enumerate(corpus) if i not in held]
        params, _ = train(train_set, bundle, cfg)
        accuracies.append(evaluate_accuracy(params, bundle, [corpus[i] for i in fold], cfg.hp))
    mean = float(np.mean(accuracies))
    std = float(np.std(accuracies, ddof=1)) if len(accuracies) > 1 else 0.0
    return CvReport(accuracies, mean, std)


def holdout(corpus: list[EncodedArticle], val_fraction: float,
            seed: int) -> tuple[list[EncodedArticle], list[EncodedArticle]]:
    """The single train/validation split of ``train`` and of a sweep without folds.

    The first round(N * val_fraction) articles of default_rng(seed).permutation(N) are
    held out and the rest are trained on, both lists in permutation order. Raises
    ValueError naming 'val_fraction' unless it lies in [0, 1) and leaves an article to
    train on.
    """
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError(f"'val_fraction' must lie in [0, 1), got {val_fraction}")
    order = np.random.default_rng(seed).permutation(len(corpus))
    n_val = int(round(len(corpus) * val_fraction))
    if n_val >= len(corpus):
        raise ValueError(f"'val_fraction' = {val_fraction} leaves none of the {len(corpus)} "
                         f"articles to train on")
    return [corpus[i] for i in order[n_val:]], [corpus[i] for i in order[:n_val]]


def validation_split(corpus: list[EncodedArticle], val_fraction: float,
                     seed: int) -> tuple[list[EncodedArticle], list[EncodedArticle]]:
    """``holdout``'s split, refusing one that holds out no article: a sweep cell's."""
    train_set, val_set = holdout(corpus, val_fraction, seed)
    if not val_set:
        raise ValueError(f"'val_fraction' = {val_fraction} holds out none of the "
                         f"{len(corpus)} articles")
    return train_set, val_set


DEFAULT_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)


def sweep_alpha_beta(
    corpus: list[EncodedArticle],
    bundle: KnowledgeBundle,
    cfg: TrainConfig,
    alphas: Sequence[float] = DEFAULT_GRID,
    betas: Sequence[float] = DEFAULT_GRID,
    folds: int = 0,
    val_fraction: float = 0.25,
) -> np.ndarray:
    """Accuracy for every (alpha, beta) cell; rows follow alphas ascending.

    With folds >= 2 each cell runs a cross-validation; otherwise every cell trains and
    validates on ``validation_split``, the split ``train`` makes, so a cell is the final
    ``val_acc`` of a training with its alpha and beta. A fraction that holds out no
    article, or leaves none to train on, raises ValueError.
    Cells that differ only in a factor the model does not read (``model.factors_read``)
    share one training, and a line says how many cells were trained.
    """
    for value in list(alphas) + list(betas):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"grid values must lie in [0, 1], got {value}")
    grid = np.zeros((len(alphas), len(betas)))
    if folds < 2:
        train_set, val_set = validation_split(corpus, val_fraction, cfg.seed)

    read = dict(zip(("alpha", "beta"), md.factors_read(cfg.hp, bundle)))
    accuracies: dict[tuple, float] = {}  # keyed by the factors the model reads
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(betas):
            key = (alpha if read["alpha"] else None, beta if read["beta"] else None)
            if key not in accuracies:
                cell_cfg = replace(cfg, hp=replace(cfg.hp, alpha=alpha, beta=beta))
                if folds >= 2:
                    accuracies[key] = cross_validate(corpus, bundle, folds, cell_cfg).mean
                else:
                    params, _ = train(train_set, bundle, cell_cfg)
                    accuracies[key] = evaluate_accuracy(params, bundle, val_set, cell_cfg.hp)
            grid[i, j] = accuracies[key]
    unread = [factor for factor, is_read in read.items() if not is_read]
    print(f"trained {len(accuracies)} of {grid.size} cells"
          + (f" ({', '.join(unread)} not read)" if unread else ""))
    return grid


# --------------------------------------------------------------------------
# Significance testing
# --------------------------------------------------------------------------

def welch_t_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> tuple[float, float]:
    """Welch's unequal-variance t statistic and two-sided p-value.

    Degenerate convention: if both samples have zero variance, p is 1.0
    for equal means and 0.0 otherwise.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("each sample needs at least 2 observations")
    va, vb = a.var(ddof=1), b.var(ddof=1)
    if va == 0.0 and vb == 0.0:
        if a.mean() == b.mean():
            return 0.0, 1.0
        return float("inf") if a.mean() > b.mean() else float("-inf"), 0.0
    # Loaded here, not at the top: no pipeline step needs scipy.stats, and importing it
    # takes most of the package's import time and memory.
    from scipy import stats

    # From the variances already taken: ttest_ind warns of precision loss for a constant sample.
    result = stats.ttest_ind_from_stats(a.mean(), np.sqrt(va), a.size, b.mean(), np.sqrt(vb),
                                        b.size, equal_var=False)
    return float(result.statistic), float(result.pvalue)
