"""Benchmark for the stancenet pipeline: three workloads, timed from outside.

    python3 perfbench/run.py --workload news-v50k --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. The benchmark generates the workload's
inputs from ``--seed`` in a child process, loads them through the program
several times (set-up), then repeats the workload's cycle in a closed loop
with one caller, one call after another on one thread, until ``--seconds``
have been measured. It checks the program's outputs and prints, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The lines before it name every metric with its
unit, the environment, and where the full result was written
(``.bench_out/``). Inputs live in ``.bench_work/`` while the run lasts.

Workloads (paper shapes d=64, 4 heads, n=64, l=32, batch 16):

* ``news-v50k``   - V=50k Zipf vocabulary, long ragged articles, mode All
  with three 30%-coverage knowledge tables. Cycle: one ``training.train``
  epoch, then ``training.evaluate_accuracy`` on held-out articles.
* ``news-v5k-cv`` - V=5k, short articles, mode WST without knowledge.
  Set-up is ``cli.main(["preprocess", ...])``; the cycle is one
  ``cli.main(["train", "--folds", "2", ...])`` call with the default jobs.
* ``kg-2k``       - 2,000-entity skewed-degree graph, dim 32, 8 negatives.
  Cycle: one ``kge.train_kge`` epoch per method (RotatE, ModE, HAKE), each
  on an equal share of the training triples, then filtered
  ``kge.evaluate_completion`` of every method on the held-out triples.

Times are scaled to a nominal machine speed measured by a calibration
kernel that runs between the timed calls (see NOMINAL_CALIBRATION_S); the
unscaled times are printed beside them. The thread count of the BLAS
library is left at its default, as users run it; the environment block
records it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import numpy as np  # noqa: E402
from trace import Tracer  # noqa: E402

SETUP_REPS = {"news-v50k": 3, "news-v5k-cv": 9, "kg-2k": 9}
KGE_DIM, KGE_NEGATIVES = 32, 8
EVAL_K = (0, 1, 3, 10)  # HITS@0 = 0 and HITS@E = 1 bound every rank to [1, E]

# The speed of a small shared machine drifts by tens of percent over minutes,
# far more than one run can average away. Every run therefore times a short
# fixed calibration kernel before each program call it times, and reports
# times scaled to a machine on which that kernel takes NOMINAL_CALIBRATION_S:
# a time t measured while the kernel's median was c reads t * NOMINAL / c,
# with set-up and cycles scaled by the kernel samples of their own phase.
# The kernel must sample the machine as densely as the calls do; a few
# samples per run track the drift worse than no scaling at all. The
# unscaled figures are printed and kept in the result file.
CALIBRATION_STEPS = 1400
NOMINAL_CALIBRATION_S = 0.05

# End-to-end metric -> unit. perfbench/metrics.json gives the meaning of each
# on each workload.
END_TO_END = {"setup_s": "s", "cycle_s": "s", "train_per_s": "items/s",
              "eval_ms_per_item": "ms", "peak_rss_mb": "MiB"}


@dataclass
class Cycle:
    """What one workload cycle did, how long its parts took, and what it produced."""

    train_s: float
    train_items: int
    eval_s: float
    eval_items: int
    total_s: float = 0.0  # time in program calls; calibration runs fall outside it
    outputs: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, units: int, problem: str):
        self.failed += units
        self.problems.append(problem)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def close(value: float, ref: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rel * max(abs(ref), 1e-300)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

class NewsV50k:
    """Classifier training and evaluation at a 50k vocabulary with knowledge."""

    setup_attempted = setup_failed = 0  # set-up is plain calls; an error ends the run

    def __init__(self, sn, inputs: Path, manifest: dict, calibrate):
        self.sn, self.inputs, self.manifest, self.calibrate = sn, inputs, manifest, calibrate

    def setup(self):
        td, kg, md = self.sn.textdata, self.sn.kge, self.sn.model
        self.vocab = td.Vocabulary.load(self.inputs / self.manifest["vocab"])
        self.train_set, classes = td.load_encoded(self.inputs / self.manifest["train"])
        self.eval_set, _ = td.load_encoded(self.inputs / self.manifest["eval"])
        tables = [kg.KnowledgeEmbeddingTable.load(self.inputs / name)
                  for name in self.manifest["tables"]]
        self.bundle = md.KnowledgeBundle(*tables)
        self.hp = md.HyperParams(classes=classes, mode="All")

    def after_setup(self) -> list[str]:
        """Check what set-up loaded; returns the problems found."""
        shape = gen.SHAPES["news-v50k"]
        problems = []
        if len(self.vocab) != shape.vocab or self.bundle.n_words != shape.vocab:
            problems.append(f"vocabulary/table size {len(self.vocab)}/{self.bundle.n_words}")
        coverage = [float(t.coverage.mean()) for t in
                    (self.bundle.com, self.bundle.lib, self.bundle.con)]
        if not all(0.2 < c < 0.4 for c in coverage):
            problems.append(f"table coverage {coverage}")
        return problems

    def cycle(self) -> Cycle:
        tr = self.sn.training
        cfg = tr.TrainConfig(epochs=1, hp=self.hp)
        self.calibrate()
        t0 = time.perf_counter()
        params, reports = tr.train(self.train_set, self.bundle, cfg)
        train_s = time.perf_counter() - t0
        self.calibrate()
        t0 = time.perf_counter()
        accuracy = tr.evaluate_accuracy(params, self.bundle, self.eval_set, self.hp)
        eval_s = time.perf_counter() - t0
        self.batches = batches = math.ceil(len(self.train_set) / cfg.batch_size)
        c = Cycle(train_s, len(self.train_set), eval_s, len(self.eval_set), train_s + eval_s)
        c.attempted = batches + len(self.eval_set)
        c.outputs = {"train_loss": reports[0].loss, "accuracy": accuracy,
                     "params": digest(*(t.data for t in params.tensors()))}
        self.params = params
        if not math.isfinite(reports[0].loss):
            c.fail(batches, f"training loss {reports[0].loss}")
        if not 0.0 <= accuracy <= 1.0:
            c.fail(len(self.eval_set), f"accuracy {accuracy}")
        return c

    def deep_check(self, c: Cycle):
        """Every evaluated probability vector sums to 1 and agrees with the accuracy.

        Runs after the later cycles were found to reproduce ``c`` bit for bit,
        so the parameters the last cycle trained are the ones ``c`` trained.
        """
        md, np = self.sn.model, self.sn.np
        hits, nll = 0, 0.0
        for i, article in enumerate(self.eval_set):
            p = md.predict(article, self.params, self.bundle, self.hp).data
            if not (np.all(np.isfinite(p)) and np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-12):
                c.fail(1, f"eval article {i}: probabilities {p.tolist()}")
            hits += int(np.argmax(p)) == article.label
            nll -= math.log(max(float(p[article.label]), md.PROB_FLOOR))
        if hits / len(self.eval_set) != c.outputs["accuracy"]:
            c.fail(len(self.eval_set), "evaluate_accuracy disagrees with predict")
        # The training loss of the first batch cannot see the gradient; the
        # held-out loss after the Adam step can.
        c.outputs["eval_loss"] = nll / len(self.eval_set)

    def reference_problems(self, c: Cycle, ref: dict) -> list[tuple[int, str]]:
        problems = []
        if not close(c.outputs["train_loss"], ref["train_loss"], ref["loss_rel_tol"]):
            problems.append((self.batches,
                             f"train_loss {c.outputs['train_loss']!r} != {ref['train_loss']!r}"))
        if not close(c.outputs["eval_loss"], ref["eval_loss"], ref["loss_rel_tol"]):
            problems.append((len(self.eval_set),
                             f"eval_loss {c.outputs['eval_loss']!r} != {ref['eval_loss']!r}"))
        return problems

    def named(self, m: dict) -> dict:
        return {"train_articles_per_s": (m["train_per_s"], "articles/s"),
                "eval_articles_per_s": (1000.0 / m["eval_ms_per_item"], "articles/s")}


class NewsV5kCv:
    """Preprocessing and 2-fold cross-validation through the command line."""

    FOLDS = 2

    def __init__(self, sn, inputs: Path, manifest: dict, calibrate):
        self.sn, self.inputs, self.manifest, self.calibrate = sn, inputs, manifest, calibrate
        self.pre = inputs / "pre"
        self.out = inputs / "cv"
        self.setup_attempted = self.setup_failed = 0

    def _cli(self, argv) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.sn.cli.main(argv)
        if code != 0:
            print(f"cli {argv[0]} exited {code}: {sink.getvalue().strip()}", file=sys.stderr)
        return code

    def setup(self):
        code = self._cli(["preprocess", str(self.inputs / self.manifest["articles"]),
                          "--output-dir", str(self.pre)])
        self.setup_attempted += 1
        self.setup_failed += code != 0

    def after_setup(self) -> list[str]:
        vocab = (self.pre / "vocab.txt").read_text(encoding="utf-8").split()
        shape = gen.SHAPES["news-v5k-cv"]
        return [] if len(vocab) == shape.vocab else [f"vocabulary size {len(vocab)}"]

    def cycle(self) -> Cycle:
        self.calibrate()
        t0 = time.perf_counter()
        code = self._cli(["train", "--folds", str(self.FOLDS),
                          "--corpus", str(self.pre / "corpus.npz"),
                          "--vocab", str(self.pre / "vocab.txt"),
                          "--no-knowledge", "--mode", "WST", "--epochs", "1",
                          "--output-dir", str(self.out)])
        t1 = time.perf_counter()
        articles = gen.SHAPES["news-v5k-cv"].train_articles
        # Every article is trained on in FOLDS - 1 folds and held out in one.
        c = Cycle(t1 - t0, articles * (self.FOLDS - 1), t1 - t0, articles, t1 - t0)
        c.attempted = 1
        if code != 0:
            c.fail(1, f"train --folds exited {code}")
            return c
        rows = dict(line.split(",") for line in
                    (self.out / "cv_report.csv").read_text(encoding="utf-8").split()[1:])
        folds = [float(rows[str(i)]) for i in range(self.FOLDS)]
        c.outputs = {"fold_accuracies": folds, "mean": float(rows["mean"])}
        if not all(0.0 <= a <= 1.0 for a in folds) or \
                not math.isclose(sum(folds) / len(folds), c.outputs["mean"], rel_tol=1e-12):
            c.fail(1, f"cv report out of range or inconsistent: {rows}")
        return c

    def deep_check(self, c: Cycle):
        pass

    def reference_problems(self, c: Cycle, ref: dict) -> list[tuple[int, str]]:
        got = c.outputs.get("fold_accuracies", [])
        if len(got) == len(ref["fold_accuracies"]) and all(
                abs(a - b) <= ref["accuracy_abs_tol"] for a, b in zip(got, ref["fold_accuracies"])):
            return []
        return [(1, f"fold accuracies {got} != reference {ref['fold_accuracies']}")]

    def named(self, m: dict) -> dict:
        return {"cv_s": (m["cycle_s"], "s")}


class Kg2k:
    """Knowledge-graph embedding training and filtered link prediction."""

    setup_attempted = setup_failed = 0

    def __init__(self, sn, inputs: Path, manifest: dict, calibrate, seed: int):
        self.sn, self.inputs, self.manifest, self.calibrate = sn, inputs, manifest, calibrate
        self.seed = seed

    def setup(self):
        self.store = self.sn.kge.load_triples(self.inputs / self.manifest["graph"], "common")

    def after_setup(self) -> list[str]:
        # The held-out split and the per-method shares are the benchmark's
        # own preparation, so they stay outside the timed set-up.
        kg, np = self.sn.kge, self.sn.np
        store = self.store
        order = np.random.default_rng([self.seed, 1]).permutation(len(store.triples))
        n_test, share = self.manifest["test"], self.manifest["share"]
        self.test = [store.triples[i] for i in order[:n_test]]
        train = [store.triples[i] for i in order[n_test:]]
        self.shares = {
            method: kg.TripleStore(store.entities, store.entity_names, store.relations,
                                   store.relation_names, train[k * share:(k + 1) * share],
                                   store.stance_tag)
            for k, method in enumerate(kg.METHODS)
        }
        if store.n_entities != self.manifest["entities"]:
            return [f"graph has {store.n_entities} entities"]
        return []

    def cycle(self) -> Cycle:
        kg = self.sn.kge
        c = Cycle(0.0, 0, 0.0, 0)
        entities = self.store.n_entities
        for method, share in self.shares.items():
            cfg = kg.KgeConfig(method=method, dim=KGE_DIM, negatives=KGE_NEGATIVES, epochs=1)
            self.calibrate()
            t0 = time.perf_counter()
            model = kg.train_kge(share, cfg)
            c.train_s += time.perf_counter() - t0
            self.calibrate()
            t0 = time.perf_counter()
            metrics = kg.evaluate_completion(model, self.store, self.test, EVAL_K + (entities,))
            c.eval_s += time.perf_counter() - t0
            c.train_items += len(share.triples)
            c.eval_items += len(self.test)
            c.attempted += len(share.triples) + len(self.test)
            loss = model.epoch_losses[0]
            c.outputs[method] = {"loss": loss, "MR": metrics["MR"], "MRR": metrics["MRR"],
                                 "params": digest(model.entity, model.relation)}
            if not math.isfinite(loss):
                c.fail(len(share.triples), f"{method} loss {loss}")
            hits = [metrics[f"HITS@{k}"] for k in EVAL_K + (entities,)]
            if not (hits[0] == 0.0 and hits[-1] == 1.0 and hits == sorted(hits)
                    and 1.0 <= metrics["MR"] <= entities
                    and 1.0 / entities <= metrics["MRR"] <= 1.0):
                c.fail(len(self.test), f"{method} ranking metrics out of range: {metrics}")
        c.total_s = c.train_s + c.eval_s
        return c

    def deep_check(self, c: Cycle):
        pass

    def reference_problems(self, c: Cycle, ref: dict) -> list[tuple[int, str]]:
        problems = []
        for method, share in self.shares.items():
            got, want = c.outputs[method], ref[method]
            if not close(got["loss"], want["loss"], ref["loss_rel_tol"]):
                problems.append((len(share.triples), f"{method} loss {got['loss']!r} != {want['loss']!r}"))
            if not (close(got["MR"], want["MR"], ref["rank_rel_tol"])
                    and close(got["MRR"], want["MRR"], ref["rank_rel_tol"])):
                problems.append((len(self.test), f"{method} MR/MRR {got['MR']!r}/{got['MRR']!r} "
                                                 f"!= {want['MR']!r}/{want['MRR']!r}"))
        return problems

    def named(self, m: dict) -> dict:
        return {"kge_triples_per_s": (m["train_per_s"], "triples/s"),
                "kge_rank_ms_per_triple": (m["eval_ms_per_item"], "ms")}


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------

def environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_build": blas.get("openblas configuration"),
        "machine": platform.machine(),
    }
    # The runtime thread count of numpy's bundled OpenBLAS, read, never set.
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol, key in (("scipy_openblas_get_num_threads64_", "blas_threads"),
                            ("scipy_openblas_get_config64_", "blas_runtime")):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int if key == "blas_threads" else ctypes.c_char_p
                value = fn()
                env[key] = value.decode() if isinstance(value, bytes) else value
    return env


# --------------------------------------------------------------------------
# Runner
# --------------------------------------------------------------------------

class Program:
    """The stancenet modules, imported from the checkout's own ``src``."""

    def __init__(self):
        import numpy as np
        import scipy

        from stancenet import cli, kge, model, textdata, training
        self.np, self.scipy = np, scipy
        self.cli, self.kge, self.model, self.textdata, self.training = (
            cli, kge, model, textdata, training)


def calibration_kernel() -> float:
    """Seconds for a fixed batch of small numpy operations driven from Python.

    The mix resembles how the program spends its time (many small matrix
    products, row softmaxes and reductions, plus the Python objects that
    carry them) but calls no program code, so no change to the program can
    move it. It tracks the speed of the machine at the moment it runs.
    """
    x0 = np.linspace(-1.0, 1.0, 64 * 16).reshape(64, 16)
    w = np.linspace(-0.5, 0.5, 16 * 16).reshape(16, 16)
    keep = []
    start = time.perf_counter()
    for i in range(CALIBRATION_STEPS):
        x = x0 @ w
        e = np.exp(x - x.max(axis=1, keepdims=True))
        y = e / e.sum(axis=1, keepdims=True)
        keep.append((x, y, (y * (1.0 - y)).sum(axis=0), {"step": i}))
        if len(keep) > 200:
            keep.clear()
    return time.perf_counter() - start


def run_cycles(workload, seconds: float, tracer, budget_start: float) -> list[Cycle]:
    """Closed loop: start the next cycle only while it is likely to end near the budget."""
    cycles: list[Cycle] = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_unit("cycle")
        try:
            c = workload.cycle()
        except Exception:
            traceback.print_exc()
            c = Cycle(0.0, 0, 0.0, 0, attempted=1, failed=1, problems=["cycle raised"])
        cycles.append(c)
        now = time.perf_counter()
        if now - budget_start + 0.5 * (now - start) / len(cycles) >= seconds:
            return cycles


def same_outputs(a: Cycle, b: Cycle) -> bool:
    """Bit-for-bit equality of two cycles' checked outputs."""
    return _float_bits(a.outputs) == _float_bits(b.outputs)


def _float_bits(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _float_bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_float_bits(v) for v in value]
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stancenet benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(gen.SHAPES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stancenet" / "__init__.py").is_file():
        print(f"error: no stancenet package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sn = Program()

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["checks"]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, sn, work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def make_workload(args, sn, work: Path, calibrate):
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--out", str(work)], check=True, timeout=170)
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    if args.workload == "news-v50k":
        return NewsV50k(sn, work, manifest, calibrate)
    if args.workload == "news-v5k-cv":
        return NewsV5kCv(sn, work, manifest, calibrate)
    return Kg2k(sn, work, manifest, calibrate, args.seed)


def measure(args, sn, work: Path, reference: dict) -> int:
    shutil.rmtree(work, ignore_errors=True)
    setup_calibrations: list[float] = []
    calibrations: list[float] = []
    workload = make_workload(args, sn, work, lambda: calibrations.append(calibration_kernel()))
    tracer = Tracer() if args.trace else None

    if tracer is not None:
        tracer.install()
    setup_times = []
    for _ in range(SETUP_REPS[args.workload]):
        setup_calibrations.append(calibration_kernel())
        if tracer is not None:
            tracer.begin_unit("setup")
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.uninstall()
    setup_calibrations.append(calibration_kernel())
    problems = workload.after_setup()

    budget_start = time.perf_counter()
    if tracer is None:
        untraced = run_cycles(workload, args.seconds, None, budget_start)
        timed = untraced
    else:
        # Untraced cycles fill the first half of the budget: they give the
        # outputs the traced cycles must equal bit for bit, and the baseline
        # for the tracing overhead.
        untraced = run_cycles(workload, args.seconds / 2, None, budget_start)
        tracer.install()
        try:
            timed = run_cycles(workload, args.seconds, tracer, budget_start)
        finally:
            tracer.uninstall()
    counted = untraced + timed if tracer is not None else untraced
    calibrations.append(calibration_kernel())

    # Every cycle must reproduce the first bit for bit; the first then gets
    # the deeper checks and, for the reference seed, the reference values.
    first = counted[0]
    for c in counted[1:]:
        if c.failed == 0 and not same_outputs(c, first):
            c.fail(c.attempted, "cycle outputs differ from the first cycle's")
    if first.failed == 0:
        workload.deep_check(first)
        if args.seed == reference["seed"]:
            for units, problem in workload.reference_problems(first, reference[args.workload]):
                first.fail(units, problem)

    attempted = sum(c.attempted for c in counted) + workload.setup_attempted
    failed = sum(c.failed for c in counted) + workload.setup_failed + len(problems)
    for c in counted:
        problems += c.problems
    layer_values = None
    if tracer is not None:
        layer_values, repeats = tracer.layer_metrics()
        unsteady = [name for name, steady in repeats.items() if not steady]
        problems += [f"count {name} differs between repetitions" for name in unsteady]
        failed += len(unsteady)
    attempted = max(attempted, failed)

    good = [c for c in timed if c.train_s > 0 and c.eval_s > 0]
    if not good:
        for p in problems:
            print(f"problem: {p}", file=sys.stderr)
        print("error: no cycle completed", file=sys.stderr)
        return 1

    calibration_s = statistics.median(calibrations)
    scale = NOMINAL_CALIBRATION_S / calibration_s
    setup_scale = NOMINAL_CALIBRATION_S / statistics.median(setup_calibrations)
    raw = {
        "setup_s": statistics.median(setup_times),
        "cycle_s": statistics.median(c.total_s for c in good),
        "train_per_s": statistics.median(c.train_items / c.train_s for c in good),
        "eval_ms_per_item": statistics.median(1000.0 * c.eval_s / c.eval_items for c in good),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    e2e = dict(raw, setup_s=raw["setup_s"] * setup_scale, cycle_s=raw["cycle_s"] * scale,
               train_per_s=raw["train_per_s"] / scale,
               eval_ms_per_item=raw["eval_ms_per_item"] * scale)
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    else:
        # Per-layer times mix set-up and cycle parts; the cycle scale covers
        # nearly all of them.
        layer_values = {k: v * scale if k.endswith("_s") else v for k, v in layer_values.items()}
        # The first cycle also warms caches, so it is left out of the
        # untraced baseline when there are others.
        baseline = untraced[1:] or untraced
        layer_values["trace.overhead_s"] = e2e["cycle_s"] - scale * statistics.median(
            c.total_s for c in baseline)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer_values.items()}

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(sn.np, sn.scipy),
        "setup_times_s": setup_times,
        "setup_calibrations_s": setup_calibrations,
        "calibrations_s": calibrations,
        "setup_scale": setup_scale,
        "scale": scale,
        "cycles": [{"traced": c in timed and tracer is not None, "total_s": c.total_s,
                    "train_s": c.train_s, "train_items": c.train_items, "eval_s": c.eval_s,
                    "eval_items": c.eval_items, "failed": c.failed, "outputs": c.outputs}
                   for c in counted],
        "problems": problems,
        "end_to_end": e2e,
        "end_to_end_unscaled": raw,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {len(counted)} cycles "
          f"({len(timed) if tracer else 0} traced), {len(setup_times)} set-ups")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for p in problems:
        print(f"problem: {p}")
    print(f"calibration kernel median {calibration_s:.4g} s over {len(calibrations)} runs; "
          f"times below are scaled by {scale:.4g} (set-up {setup_scale:.4g}) to the nominal "
          f"{NOMINAL_CALIBRATION_S} s")
    for name, m in metrics.items():
        unscaled = f"  (unscaled {raw[name]:.6g})" if name in raw and name != "peak_rss_mb" else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{unscaled}")
    if tracer is None:
        for name, (value, unit) in workload.named(e2e).items():
            print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_share = {failed / attempted:.6g} failed/attempted ({failed}/{attempted})")
    print(f"wrote {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "autodiff.tape_records":
        return "records/backward"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
