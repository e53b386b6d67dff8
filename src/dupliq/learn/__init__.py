"""Classifiers, evaluation metrics, feature importance, and grid search.

Each of the seven classifier kinds in ``KINDS`` trains on a dense float
matrix or a nonnegative scipy.sparse matrix and predicts a probability
for class 1.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .._files import read_json
from ..corpus import stratified_indices
from ._models import (
    DEFAULT_HYPERPARAMETERS,
    KINDS,
    MODEL_CLASS,
    _validate_training_input,
    check_hyperparameters,
)
from .metrics import Metrics, compute_metrics, log_loss

__all__ = [
    "KINDS",
    "DEFAULT_HYPERPARAMETERS",
    "ClassifierSpec",
    "Metrics",
    "ImportanceReport",
    "train",
    "predict_proba",
    "evaluate",
    "feature_importance",
    "grid_search",
    "save_model",
    "load_model",
    "compute_metrics",
    "log_loss",
]

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str
    hyperparameters: dict = field(default_factory=dict)

    def resolved(self) -> dict:
        """The kind's defaults updated with ``hyperparameters``, checked first."""
        check_hyperparameters(self.kind, self.hyperparameters)
        return {**DEFAULT_HYPERPARAMETERS[self.kind], **self.hyperparameters}

    def to_dict(self) -> dict:
        return {"kind": self.kind, "hyperparameters": dict(self.hyperparameters)}

    @classmethod
    def from_dict(cls, d: dict) -> "ClassifierSpec":
        """A checked spec from a ``{kind, hyperparameters}`` object."""
        hp = d.get("hyperparameters", {}) if isinstance(d, dict) else None
        if not isinstance(hp, dict) or "kind" not in d or set(d) - {"kind", "hyperparameters"}:
            raise ValueError(f"a classifier spec is a {{kind, hyperparameters}} object, not {d!r}")
        spec = cls(kind=d["kind"], hyperparameters=dict(hp))
        spec.resolved()
        return spec


@dataclass
class ImportanceReport:
    ranked: list[tuple[str, float]]  # (feature name, weight), descending
    method: str  # "native_gain" or "permutation"


def train(spec: ClassifierSpec, X, y):
    """Train one classifier; deterministic for a fixed seed."""
    hp = spec.resolved()
    return MODEL_CLASS[spec.kind].train(spec.kind, hp, X, _validate_training_input(X, y))


def predict_proba(model, X) -> np.ndarray:
    return model.predict_proba(X)


def evaluate(model, X, y) -> Metrics:
    return compute_metrics(np.asarray(y), model.predict_proba(X))


def feature_importance(
    model,
    X,
    y,
    feature_names: list[str] | None = None,
    n_repeats: int = 10,
    seed: int = 0,
) -> ImportanceReport:
    """Importance weights: normalized split gain for tree models,
    permutation accuracy drop (clipped at zero, then normalized) for the
    nearest-neighbour model."""
    native = model.native_importance()
    if native is not None:
        weights = native
        method = "native_gain"
    else:
        weights = _permutation_importance(model, X, np.asarray(y), n_repeats, seed)
        method = "permutation"
    if feature_names is None:
        feature_names = [f"f{i}" for i in range(model.n_features)]
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    ranked = [(feature_names[i], float(weights[i])) for i in order]
    return ImportanceReport(ranked=ranked, method=method)


def _permutation_importance(model, X, y, n_repeats, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    baseline = float(np.mean(model.predict(X) == y))
    n_rows, n_features = X.shape
    if sp.issparse(X):
        X = sp.csc_matrix(X)
    drops = np.zeros(n_features)
    for f in range(n_features):
        for _ in range(n_repeats):
            perm = rng.permutation(n_rows)
            if sp.issparse(X):
                shuffled = _permute_sparse_column(X, f, perm)
            else:
                shuffled = np.array(X, copy=True)
                shuffled[:, f] = shuffled[perm, f]
            acc = float(np.mean(model.predict(shuffled) == y))
            drops[f] += baseline - acc
    drops = np.maximum(drops / n_repeats, 0.0)
    total = drops.sum()
    return drops / total if total > 0 else drops


def _permute_sparse_column(X, f: int, perm: np.ndarray):
    """CSR copy of the CSC matrix X whose row r of column f holds
    ``X[perm[r], f]``: the column's entries move to the inverse-permuted
    rows, and every other entry stays where it is.  The column's row
    indices need no re-sorting, since the conversion to CSR emits each
    row's entries in column order."""
    lo, hi = X.indptr[f], X.indptr[f + 1]
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(len(perm))
    indices = X.indices.copy()
    indices[lo:hi] = inverse[indices[lo:hi]]
    return sp.csc_matrix((X.data, indices, X.indptr), shape=X.shape).tocsr()


def grid_search(
    grid: list[ClassifierSpec],
    X,
    y,
    val_fraction: float = 0.10,
    seed: int = 0,
) -> tuple[ClassifierSpec, list[dict]]:
    """Pick the spec with the best validation accuracy.

    A stratified slice of the supplied (training) data is held out once;
    every candidate trains on the remainder and is scored on the slice.
    Ties keep the earliest spec in grid order.
    """
    if not grid:
        raise ValueError("empty grid")
    y = np.asarray(y)
    fit_idx, val_idx = stratified_indices(y, val_fraction, seed)
    X_fit, X_val = X[fit_idx], X[val_idx]
    y_fit, y_val = y[fit_idx], y[val_idx]
    table = []
    best_i = 0
    best_score = -1.0
    for i, spec in enumerate(grid):
        model = train(spec, X_fit, y_fit)
        score = float(np.mean(model.predict(X_val) == y_val))
        table.append({"spec": spec.to_dict(), "val_accuracy": score})
        if score > best_score:
            best_score = score
            best_i = i
    return grid[best_i], table


def save_model(
    model,
    path: str | Path,
    train_data_path: str | None = None,
    column_names: list[str] | None = None,
) -> None:
    """Persist a model as versioned JSON.

    Tree ensembles serialize completely; the nearest-neighbour model saves
    its metadata plus the absolute path and sha256 of the training feature
    file, which it re-reads at load time and refuses if it has changed.
    ``column_names``, the training matrix's, are recorded when given, and
    come back as the loaded model's ``column_names``.
    """
    doc = {"format_version": MODEL_FORMAT_VERSION, **model.to_dict()}
    if column_names is not None:
        if len(column_names) != model.n_features:
            raise ValueError(f"{len(column_names)} column names for {model.n_features} features")
        doc["column_names"] = list(column_names)
    if model.kind == "knn":
        if train_data_path is None:
            raise ValueError("knn persistence requires train_data_path")
        doc["state"]["train_data"] = os.path.abspath(train_data_path)
        doc["state"]["train_sha256"] = _sha256(train_data_path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_model(path: str | Path):
    """Rebuild a model saved by :func:`save_model`; a document that is not a
    valid model raises ValueError naming the file."""
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format")
    try:
        return _model_from_doc(doc)
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: cannot load model: {detail}") from None


def _model_from_doc(doc: dict):
    kind, hp, n_features, state = doc["kind"], doc["hyperparameters"], doc["n_features"], doc["state"]
    check_hyperparameters(kind, hp)
    if kind == "knn":
        path = state["train_data"]
        # models saved before the hash was recorded have none
        digest = state.get("train_sha256")
        if digest is not None and _sha256(path) != digest:
            raise ValueError(f"its training data {path} changed after it was saved")
        state = {**state, "training": _load_training_features(path)}
    model = MODEL_CLASS[kind].from_state(kind, hp, n_features, state)
    # models saved before column names were recorded have none
    names = doc.get("column_names")
    if names is not None and (
        not isinstance(names, list)
        or len(names) != n_features
        or not all(isinstance(name, str) for name in names)
    ):
        raise ValueError(f"column_names is not a list of {n_features} names")
    model.column_names = names
    return model


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_training_features(path: str):
    """Load (X, y) from a dense feature CSV or a sparse .npz file."""
    if path.endswith(".npz"):
        from .. import sparse_io

        return sparse_io.load_sparse_features(path)
    from ..featmat import load_matrix

    m = load_matrix(path)
    return m.rows, m.labels
