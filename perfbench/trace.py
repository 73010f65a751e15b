"""Outside-in tracing of the stancenet layers for the benchmark's traced run.

``Tracer.install`` replaces public functions of each layer with wrappers by
patching the module or class attribute that every caller resolves at call
time (``md.predict`` inside ``training``, ``tr.cross_validate`` inside
``cli``, ``Tape.backward`` on the class, and so on). A wrapper records a
span (name, start, end, parent span, unit) and, where the layer has one, a
count; it returns the wrapped function's value unchanged. Spans and counts
stay in memory until the benchmark writes them out at the end.

A *unit* is one set-up repetition or one workload cycle. Per-layer metrics
are medians over units of the same kind, summed over the kinds, so a layer
that runs in set-up and in the cycle (``cli.main``) reports both parts.
Metrics ending in ``_self_s`` are self time: the span's duration minus the
time its child spans cover. Other ``_s`` metrics are inclusive span time.

The benchmark calls the library from one thread, so one span stack is
enough; the wrappers are not meant for concurrent callers.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# Per-layer metric -> (how to derive it, span or count names it sums).
LAYER_METRICS = {
    "autodiff.backward_s": ("incl", ["autodiff.backward"]),
    "autodiff.tape_records": ("ratio", ["autodiff.tape_records", "autodiff.backward_calls"]),
    "autodiff.backward_calls": ("count", ["autodiff.backward_calls"]),
    "autodiff.gather_rows_calls": ("count", ["autodiff.gather_rows_calls"]),
    "model.predict_train_s": ("incl", ["model.predict_train"]),
    "model.predict_eval_s": ("incl", ["model.predict_eval"]),
    "model.predict_calls": ("count", ["model.predict_calls"]),
    "model.inject_knowledge_s": ("incl", ["model.inject_knowledge"]),
    "model.inject_knowledge_calls": ("count", ["model.inject_knowledge_calls"]),
    "model.word_level_s": ("incl", ["model.word_level"]),
    "model.sentence_level_s": ("incl", ["model.sentence_level"]),
    "model.title_level_s": ("incl", ["model.title_level"]),
    "model.multi_head_attention_s": ("incl", ["model.multi_head_attention"]),
    "model.cross_entropy_s": ("incl", ["model.cross_entropy"]),
    "model.init_params_s": ("incl", ["model.init_params"]),
    "training.adam_step_s": ("incl", ["training.adam_step"]),
    "training.train_self_s": ("self", ["training.train"]),
    "training.evaluate_accuracy_self_s": ("self", ["training.evaluate_accuracy"]),
    "training.cross_validate_self_s": ("self", ["training.cross_validate"]),
    "training.batches": ("count", ["training.batches"]),
    "kge.train_kge_self_s": ("self", ["kge.train_kge"]),
    "kge.evaluate_completion_s": ("incl", ["kge.evaluate_completion"]),
    "kge.load_triples_s": ("incl", ["kge.load_triples"]),
    "kge.table_load_s": ("incl", ["kge.table_load"]),
    "kge.positives": ("count", ["kge.positives"]),
    "kge.ranked_sides": ("count", ["kge.ranked_sides"]),
    "textdata.load_s": ("incl", ["textdata.vocab_load", "textdata.load_encoded"]),
    "textdata.preprocess_s": ("incl", ["textdata.load_corpus", "textdata.build_vocab",
                                       "textdata.encode_corpus", "textdata.save_encoded"]),
    "textdata.tokens_encoded": ("count", ["textdata.tokens_encoded"]),
    "cli.main_self_s": ("self", ["cli.main"]),
    "cli.exit_nonzero": ("count", ["cli.exit_nonzero"]),
}


class Tracer:
    """Spans and counts of one benchmark run, and the patches that record them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, unit]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.units: list[str] = []   # kind of each unit, by unit index
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------------- units

    def begin_unit(self, kind: str):
        """Attribute the spans and counts that follow to a new unit of ``kind``."""
        self.units.append(kind)

    @property
    def _unit(self) -> int:
        return len(self.units) - 1

    def count(self, name: str, amount: int = 1):
        self.counts[self._unit][name] += amount

    # -------------------------------------------------------------- wrappers

    def wrap(self, fn, name, on_return=None):
        """Wrap ``fn`` in a span called ``name`` (a string, or a function of
        the call arguments that returns one); ``on_return(tracer, out, args)``
        records counts. ``name=None`` records counts only."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                out = fn(*args, **kwargs)
            else:
                label = name if isinstance(name, str) else name(*args, **kwargs)
                stack = tracer._stack
                record = [label, perf_counter(), 0.0, stack[-1] if stack else -1, tracer._unit]
                stack.append(len(tracer.spans))
                tracer.spans.append(record)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    record[2] = perf_counter()
                    stack.pop()
            if on_return is not None:
                on_return(tracer, out, args)
            return out

        return wrapper

    def patch(self, owner, attr: str, name, on_return=None, static: bool = False):
        original = owner.__dict__[attr]
        fn = original.__func__ if static else original
        wrapped = self.wrap(fn, name, on_return)
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
        self._patched.append((owner, attr, original))

    def install(self):
        """Patch every traced entry point of the stancenet layers."""
        from stancenet import autodiff as ad
        from stancenet import cli
        from stancenet import kge as kg
        from stancenet import model as md
        from stancenet import textdata as td
        from stancenet import training as tr

        def backward_counts(t, out, args):
            t.count("autodiff.backward_calls")
            t.count("autodiff.tape_records", len(args[0]))

        def counter(metric):
            return lambda t, out, args: t.count(metric)

        def predict_name(*args, **kwargs):
            return "model.predict_train" if ad.active_tape() is not None else "model.predict_eval"

        def positives(t, out, args):
            store, config = args[0], args[1]
            t.count("kge.positives", len(store.triples) * config.epochs)

        def ranked_sides(t, out, args):
            t.count("kge.ranked_sides", 2 * len(args[2]))

        def tokens_encoded(t, out, args):
            t.count("textdata.tokens_encoded",
                    int(sum(a.word_masks.sum() + a.title_mask.sum() for a in out)))

        def exit_code(t, out, args):
            if out != 0:
                t.count("cli.exit_nonzero")

        self.patch(ad.Tape, "backward", "autodiff.backward", backward_counts)
        self.patch(ad, "gather_rows", None, counter("autodiff.gather_rows_calls"))
        self.patch(md, "predict", predict_name, counter("model.predict_calls"))
        self.patch(md, "inject_knowledge", "model.inject_knowledge",
                   counter("model.inject_knowledge_calls"))
        for fn in ("word_level", "sentence_level", "title_level", "multi_head_attention",
                   "cross_entropy", "init_params"):
            self.patch(md, fn, f"model.{fn}")
        self.patch(tr, "adam_step", "training.adam_step", counter("training.batches"))
        for fn in ("train", "evaluate_accuracy", "cross_validate"):
            self.patch(tr, fn, f"training.{fn}")
        self.patch(kg, "train_kge", "kge.train_kge", positives)
        self.patch(kg, "evaluate_completion", "kge.evaluate_completion", ranked_sides)
        self.patch(kg, "load_triples", "kge.load_triples")
        self.patch(kg.KnowledgeEmbeddingTable, "load", "kge.table_load", static=True)
        self.patch(td.Vocabulary, "load", "textdata.vocab_load", static=True)
        for fn in ("load_encoded", "load_corpus", "build_vocab", "save_encoded"):
            self.patch(td, fn, f"textdata.{fn}")
        self.patch(td, "encode_corpus", "textdata.encode_corpus", tokens_encoded)
        self.patch(cli, "main", "cli.main", exit_code)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- metrics

    def unit_totals(self) -> list[dict[str, float]]:
        """Per unit: inclusive and self seconds per span name, plus the counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, unit in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: list[dict[str, float]] = [defaultdict(float) for _ in self.units]
        for i, (name, start, end, parent, unit) in enumerate(self.spans):
            totals[unit][("incl", name)] += end - start
            totals[unit][("self", name)] += end - start - child_time[i]
        for unit, counts in self.counts.items():
            for name, value in counts.items():
                totals[unit][("count", name)] += value
        return totals

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, bool]]:
        """Per-layer metric values, and for each count whether it repeated
        exactly across the units of each kind."""
        totals = self.unit_totals()
        by_kind: dict[str, list[dict]] = defaultdict(list)
        for kind, unit_total in zip(self.units, totals):
            by_kind[kind].append(unit_total)

        values: dict[str, float] = {}
        repeats: dict[str, bool] = {}
        for metric, (how, names) in LAYER_METRICS.items():
            value = 0.0
            steady = True
            for units in by_kind.values():
                if how == "ratio":
                    num, den = (sum(u[("count", n)] for u in units) for n in names)
                    per_unit = [u[("count", names[0])] for u in units]
                    steady &= len(set(per_unit)) <= 1
                    value += num / den if den else 0.0
                    continue
                per_unit = [sum(u[(how, n)] for n in names) for u in units]
                if how == "count":
                    steady &= len(set(per_unit)) <= 1
                value += statistics.median(per_unit)
            values[metric] = value
            if how in ("count", "ratio"):
                repeats[metric] = steady
        return values, repeats

    def dump(self) -> dict:
        """Spans and counts as plain data, for writing once at the end."""
        return {
            "units": self.units,
            "spans": [[n, round(s, 7), round(e, 7), p, u] for n, s, e, p, u in self.spans],
            "counts": {str(u): dict(c) for u, c in self.counts.items()},
        }
