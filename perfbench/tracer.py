"""Spans around the program's public functions, kept in memory.

:meth:`Tracer.install` replaces every public function of the traced
``dupliq`` modules, in each ``dupliq`` namespace that binds it, with a
wrapper that records a span: name, start, end and the span that was open
when it was called.  A few per-call observers also count work at the same
boundaries (rows, pairs, stored entries, tree nodes).  :meth:`write` dumps
the spans when the run ends and :func:`layer_metrics` turns them into the
per-layer metrics.  The worker uninstalls the wrappers when the timed part
ends, so the spans cover exactly the timed rounds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = (
    "corpus", "textops", "fuzzy", "embed", "featmat", "tfidf", "sparse_io", "learn", "neural", "cli",
)
# Called once per character window or token; a span for each would cost
# more than the work it measures.  Their time counts in their callers.
UNTRACED = frozenset(
    {
        "fuzzy.lcs_length",
        "textops.tokenize",
        "textops.normalize_text",
        "textops.scrub_text",
        "textops.remove_stopwords",
        "tfidf.analyze",
    }
)
KINDS = ("knn", "adaboost", "xgb", "gbm", "decision_tree", "random_forest", "extra_trees")
INPUTS = ("dense", "word", "char")
ANALYZERS = ("word", "char")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.analyzer = None  # analyzer of the TF-IDF model last fitted or loaded
        self._replaced: list = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        for short in TRACED_MODULES:
            importlib.import_module(f"dupliq.{short}")  # cli imports neural on first use
        modules = {n: m for n, m in sys.modules.items() if n == "dupliq" or n.startswith("dupliq.")}
        wrapped = {}
        for short in TRACED_MODULES:
            prefix = f"dupliq.{short}"
            module = modules[prefix]
            for attr, fn in vars(module).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNTRACED
                    or not inspect.isfunction(fn)
                    or not (fn.__module__ == prefix or fn.__module__.startswith(prefix + "."))
                ):
                    continue
                wrapped[id(fn)] = self._wrap(name, fn, OBSERVERS.get(name))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._replaced.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        """Put the original functions back, so checks are not traced."""
        for module, attr, original in self._replaced:
            setattr(module, attr, original)
        self._replaced.clear()

    def _wrap(self, name, fn, observe):
        names, starts, ends, parents, open_ = self.names, self.starts, self.ends, self.parents, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()
            if observe is not None:
                observe(self, idx, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------ queries

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([i, name, self.starts[i], self.ends[i], self.parents[i]]) + "\n")

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            totals[name] += self.ends[i] - self.starts[i] - child[i]
        return totals


# ----------------------------------------------------------- observers
# Each gets (tracer, span index, args, kwargs, result) after the call.


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _input_kind(tracer, X) -> str:
    return "dense" if isinstance(X, np.ndarray) else tracer.analyzer


def _tree_nodes(model) -> int:
    if hasattr(model, "tree"):
        return model.tree.n_nodes
    trees = getattr(model, "trees", None) or getattr(model, "stumps", None) or []
    return sum(t.n_nodes for t in trees)


def _timed(key):
    def observe(tracer, idx, args, kwargs, result):
        tracer.samples[key].append(tracer.duration(idx))

    return observe


def _load_pairs(tracer, idx, args, kwargs, result):
    tracer.counts["corpus.rows"] += len(result)
    tracer.counts["corpus.load_s"] += tracer.duration(idx)


def _extract_matrix(tracer, idx, args, kwargs, result):
    tracer.counts["featmat.rows"] += len(result)
    tracer.counts["featmat.extract_s"] += tracer.duration(idx)


def _solve_transport(tracer, idx, args, kwargs, result):
    # both transport columns solve the same bags, so a pair makes two calls
    costs = _arg(args, kwargs, 2, "costs")
    tracer.counts["embed.wmd_solve_pairs"] += 0.5
    if min(costs.shape) == 1:
        tracer.counts["embed.wmd_one_word_pairs"] += 0.5


def _tfidf_fit(tracer, idx, args, kwargs, result):
    tracer.analyzer = result.analyzer
    tracer.counts[f"tfidf.fit_docs.{result.analyzer}"] += len(_arg(args, kwargs, 0, "corpus"))
    tracer.counts[f"tfidf.fit_s.{result.analyzer}"] += tracer.duration(idx)
    tracer.counts[f"tfidf.fresh_fit.{result.analyzer}"] = 1


def _tfidf_load(tracer, idx, args, kwargs, result):
    tracer.analyzer = result.analyzer


def _pair_vector(tracer, idx, args, kwargs, result):
    analyzer = _arg(args, kwargs, 0, "model").analyzer
    tracer.counts[f"tfidf.vectorize_pairs.{analyzer}"] += 1
    tracer.counts[f"tfidf.vectorize_s.{analyzer}"] += tracer.duration(idx)


def _stack(tracer, idx, args, kwargs, result):
    a = tracer.analyzer
    tracer.counts[f"tfidf.vectorize_s.{a}"] += tracer.duration(idx)
    if tracer.counts.pop(f"tfidf.fresh_fit.{a}", 0):
        tracer.counts[f"tfidf.nnz.{a}"] = result.nnz  # first stack after a fit: the train matrix


def _load_sparse(tracer, idx, args, kwargs, result):
    tracer.samples["sparse_io.load_s"].append(tracer.duration(idx))
    if tracer.analyzer is not None:
        tracer.counts[f"tfidf.nnz.{tracer.analyzer}"] = result[0].nnz


def _train(tracer, idx, args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    key = f"{spec.kind}.{_input_kind(tracer, _arg(args, kwargs, 1, 'X'))}"
    tracer.samples[f"learn.train_s.{key}"].append(tracer.duration(idx))
    if spec.kind != "knn":
        tracer.counts[f"learn.tree_nodes.{key}"] = _tree_nodes(result)


def _evaluate(tracer, idx, args, kwargs, result):
    model, X = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "X")
    key = f"{model.kind}.{_input_kind(tracer, X)}"
    tracer.counts[f"learn.evaluate_rows.{key}"] += X.shape[0]
    tracer.counts[f"learn.evaluate_s.{key}"] += tracer.duration(idx)


def _predict_proba(tracer, idx, args, kwargs, result):
    model, X = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "X")
    if X.shape[0] == 1:
        tracer.samples[f"learn.predict_one_s.{model.kind}"].append(tracer.duration(idx))


def _train_network(tracer, idx, args, kwargs, result):
    net, y = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 3, "y")
    epochs = len(result.loss)
    tracer.counts[f"neural.samples.arch{net.arch}"] += len(y) * epochs
    tracer.counts[f"neural.train_s.arch{net.arch}"] += tracer.duration(idx)


def _cli_main(tracer, idx, args, kwargs, result):
    tracer.counts["cli.commands"] += 1


OBSERVERS = {
    "corpus.load_pairs": _load_pairs,
    "textops.basic_features": _timed("textops.basic_s"),
    "fuzzy.fuzzy_features": _timed("fuzzy.features_s"),
    "embed.load_word2vec_binary": _timed("embed.load_s"),
    "embed.load_glove_text": _timed("embed.load_s"),
    "embed.wmd": _timed("embed.wmd_s"),
    "embed.sentence_vector": _timed("embed.vector_s"),
    "embed.distance": _timed("embed.vector_s"),
    "embed.moments": _timed("embed.vector_s"),
    "embed.solve_transport": _solve_transport,
    "featmat.extract_matrix": _extract_matrix,
    "featmat.extract_row": _timed("featmat.extract_row_s"),
    "tfidf.fit": _tfidf_fit,
    "tfidf.load_model": _tfidf_load,
    "tfidf.pair_vector": _pair_vector,
    "tfidf.stack": _stack,
    "sparse_io.load_sparse_features": _load_sparse,
    "learn.train": _train,
    "learn.evaluate": _evaluate,
    "learn.load_model": _timed("learn.load_model_s"),
    "learn.predict_proba": _predict_proba,
    "neural.train_network": _train_network,
    "cli.main": _cli_main,
}


# ------------------------------------------------------------- metrics


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {
        "corpus.load_rows_per_s": "1/s",
        "textops.basic_pairs_per_s": "1/s",
        "fuzzy.features_pairs_per_s": "1/s",
        "embed.load_s": "s",
        "embed.wmd_pairs_per_s": "1/s",
        "embed.vector_pairs_per_s": "1/s",
        "embed.wmd_solve_pairs": "count",
        "embed.wmd_one_word_pairs": "count",
        "featmat.extract_pairs_per_s": "1/s",
        "featmat.extract_row_p50_ms": "ms",
        "featmat.slots_per_unique_question": "ratio",
    }
    for a in ANALYZERS:
        units[f"tfidf.fit_docs_per_s.{a}"] = "1/s"
        units[f"tfidf.vectorize_pairs_per_s.{a}"] = "1/s"
        units[f"tfidf.nnz.{a}"] = "count"
    units["sparse_io.load_s"] = "s"
    for kind in KINDS:
        for inp in INPUTS:
            units[f"learn.train_s.{kind}.{inp}"] = "s"
            units[f"learn.evaluate_rows_per_s.{kind}.{inp}"] = "1/s"
            if kind != "knn":
                units[f"learn.tree_nodes.{kind}.{inp}"] = "count"
    units["learn.load_model_s"] = "s"
    for kind in ("xgb", "knn"):
        units[f"learn.predict_one_p50_ms.{kind}"] = "ms"
    for k in range(1, 5):
        units[f"neural.train_samples_per_s.arch{k}"] = "1/s"
    units["cli.self_s"] = "s"
    units["trace.run_s"] = "s"
    return units


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def _median(values, scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(tracer: Tracer, counts: dict, slots_per_unique: float, run_s: float) -> dict:
    """Per-layer metrics; 0 where the workload does not run the layer.

    Rates and times use every span of the run.  Counts that must repeat
    exactly (``counts``) are the ones the worker took after a fixed number
    of rounds, so they do not depend on how many rounds fit in the run.
    """
    c, s = tracer.counts, tracer.samples
    out = {
        "corpus.load_rows_per_s": _rate(c["corpus.rows"], c["corpus.load_s"]),
        "textops.basic_pairs_per_s": _rate(len(s["textops.basic_s"]), sum(s["textops.basic_s"])),
        "fuzzy.features_pairs_per_s": _rate(len(s["fuzzy.features_s"]), sum(s["fuzzy.features_s"])),
        "embed.load_s": _median(s["embed.load_s"]),
        "embed.wmd_pairs_per_s": _rate(len(s["embed.wmd_s"]) / 2, sum(s["embed.wmd_s"])),
        "embed.vector_pairs_per_s": _rate(len(s["embed.vector_s"]) / 11, sum(s["embed.vector_s"])),
        "embed.wmd_solve_pairs": counts.get("embed.wmd_solve_pairs", 0),
        "embed.wmd_one_word_pairs": counts.get("embed.wmd_one_word_pairs", 0),
        "featmat.extract_pairs_per_s": _rate(c["featmat.rows"], c["featmat.extract_s"]),
        "featmat.extract_row_p50_ms": _median(s["featmat.extract_row_s"], 1e3),
        "featmat.slots_per_unique_question": slots_per_unique,
    }
    for a in ANALYZERS:
        out[f"tfidf.fit_docs_per_s.{a}"] = _rate(c[f"tfidf.fit_docs.{a}"], c[f"tfidf.fit_s.{a}"])
        out[f"tfidf.vectorize_pairs_per_s.{a}"] = _rate(
            c[f"tfidf.vectorize_pairs.{a}"], c[f"tfidf.vectorize_s.{a}"]
        )
        out[f"tfidf.nnz.{a}"] = counts.get(f"tfidf.nnz.{a}", 0)
    out["sparse_io.load_s"] = _median(s["sparse_io.load_s"])
    for kind in KINDS:
        for inp in INPUTS:
            key = f"{kind}.{inp}"
            out[f"learn.train_s.{key}"] = _median(s[f"learn.train_s.{key}"])
            out[f"learn.evaluate_rows_per_s.{key}"] = _rate(
                c[f"learn.evaluate_rows.{key}"], c[f"learn.evaluate_s.{key}"]
            )
            if kind != "knn":
                out[f"learn.tree_nodes.{key}"] = counts.get(f"learn.tree_nodes.{key}", 0)
    out["learn.load_model_s"] = _median(s["learn.load_model_s"])
    for kind in ("xgb", "knn"):
        out[f"learn.predict_one_p50_ms.{kind}"] = _median(s[f"learn.predict_one_s.{kind}"], 1e3)
    for k in range(1, 5):
        out[f"neural.train_samples_per_s.arch{k}"] = _rate(
            c[f"neural.samples.arch{k}"], c[f"neural.train_s.arch{k}"]
        )
    self_times = tracer.self_times()
    cli_self = sum(t for name, t in self_times.items() if name.startswith("cli."))
    out["cli.self_s"] = _rate(cli_self, c["cli.commands"])
    out["trace.run_s"] = run_s
    assert out.keys() == metric_units().keys()
    return out
