"""Assembly and persistence of the 28-feature matrix.

The canonical column order is fixed by ``FEATURE_NAMES`` and versioned via
the CSV header; model files and golden tests depend on it.  The default
drop list (``DEFAULT_DROP_LIST``) removes the eight lowest-importance
columns, leaving the twenty retained by the reference study.  A row takes
one embedding bag per question (``embed.question_bag``) and one fuzzy pass
per pair (``fuzzy.fuzzy_features``).
"""

from __future__ import annotations

import csv
import multiprocessing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import embed, fuzzy, textops
from .corpus import PairTable, QuestionPair
from .embed import EmbeddingTable

FEATURE_NAMES = (
    "len_q1",
    "len_q2",
    "len_diff",
    "nchar_q1",
    "nchar_q2",
    "nwords_q1",
    "nwords_q2",
    "common_words",
    "qratio",
    "wratio",
    "partial_ratio",
    "token_set_ratio",
    "token_sort_ratio",
    "partial_token_set_ratio",
    "partial_token_sort_ratio",
    "wmd",
    "norm_wmd",
    "cosine",
    "minkowski3",
    "cityblock",
    "euclidean",
    "jaccard",
    "canberra",
    "braycurtis",
    "skew_q1",
    "skew_q2",
    "kurt_q1",
    "kurt_q2",
)

DEFAULT_DROP_LIST = frozenset(
    {
        "len_diff",
        "wratio",
        "jaccard",
        "braycurtis",
        "euclidean",
        "cityblock",
        "partial_token_set_ratio",
        "partial_token_sort_ratio",
    }
)

LABEL_COLUMN = "is_duplicate"


@dataclass
class FeatureRow:
    values: np.ndarray  # aligned with FEATURE_NAMES
    label: int

    def __getitem__(self, name: str) -> float:
        return float(self.values[FEATURE_NAMES.index(name)])


@dataclass
class FeatureMatrix:
    column_names: list[str]
    rows: np.ndarray  # shape (n, len(column_names))
    labels: np.ndarray  # shape (n,)

    def __len__(self) -> int:
        return self.rows.shape[0]


def extract_row(pair: QuestionPair, table: EmbeddingTable) -> FeatureRow:
    """Compute all 28 features for one cleaned question pair: both transport
    columns, the distances and the moments share one bag per question."""
    q1, q2 = pair.question1, pair.question2
    basic = textops.basic_features(q1, q2)
    fz = fuzzy.fuzzy_features(q1, q2)
    bag1 = embed.question_bag(q1, table)
    bag2 = embed.question_bag(q2, table)
    u1, u2 = bag1.mean, bag2.mean
    mom1 = embed.moments(u1)
    mom2 = embed.moments(u2)

    values = np.array(
        [
            basic.len_q1,
            basic.len_q2,
            basic.len_diff,
            basic.nchar_q1,
            basic.nchar_q2,
            basic.nwords_q1,
            basic.nwords_q2,
            basic.common_words,
            fz.qratio,
            fz.wratio,
            fz.partial_ratio,
            fz.token_set_ratio,
            fz.token_sort_ratio,
            fz.partial_token_set_ratio,
            fz.partial_token_sort_ratio,
            embed.wmd(bag1, bag2),
            embed.wmd(bag1, bag2, normalize_words=True),
            embed.distance(u1, u2, "cosine"),
            embed.distance(u1, u2, "minkowski3"),
            embed.distance(u1, u2, "cityblock"),
            embed.distance(u1, u2, "euclidean"),
            embed.distance(u1, u2, "jaccard"),
            embed.distance(u1, u2, "canberra"),
            embed.distance(u1, u2, "braycurtis"),
            mom1.skew,
            mom2.skew,
            mom1.kurtosis,
            mom2.kurtosis,
        ],
        dtype=np.float64,
    )
    return FeatureRow(values=values, label=pair.is_duplicate)


_WORKER_TABLE: EmbeddingTable | None = None
_WORKER_PAIRS: tuple[QuestionPair, ...] | None = None


def _worker_extract(index: int) -> np.ndarray:
    return extract_row(_WORKER_PAIRS[index], _WORKER_TABLE).values


def extract_matrix(
    table: PairTable, embeddings: EmbeddingTable, n_jobs: int = 1
) -> FeatureMatrix:
    """Extract features for every pair; output order follows the table.

    With ``n_jobs > 1`` rows are distributed over forked workers; results
    are collected by row index so the matrix is identical either way.
    """
    pairs = table.rows
    if n_jobs > 1 and len(pairs) > 1:
        global _WORKER_TABLE, _WORKER_PAIRS
        _WORKER_TABLE, _WORKER_PAIRS = embeddings, pairs
        try:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(n_jobs) as pool:
                rows = pool.map(_worker_extract, range(len(pairs)), chunksize=256)
        finally:
            _WORKER_TABLE, _WORKER_PAIRS = None, None
    else:
        rows = [extract_row(p, embeddings).values for p in pairs]
    data = np.vstack(rows) if rows else np.empty((0, len(FEATURE_NAMES)))
    return FeatureMatrix(
        column_names=list(FEATURE_NAMES),
        rows=data,
        labels=table.labels,
    )


def drop_features(m: FeatureMatrix, drop: set[str] | frozenset[str]) -> FeatureMatrix:
    """Remove the named columns, preserving the order of the rest."""
    unknown = set(drop) - set(m.column_names)
    if unknown:
        raise ValueError(f"unknown feature names: {sorted(unknown)}")
    keep = [i for i, name in enumerate(m.column_names) if name not in drop]
    return FeatureMatrix(
        column_names=[m.column_names[i] for i in keep],
        rows=m.rows[:, keep],
        labels=m.labels,
    )


def save_matrix(m: FeatureMatrix, path: str | Path) -> None:
    """Write the matrix as CSV with full round-trip float precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(m.column_names) + [LABEL_COLUMN])
        for row, label in zip(m.rows, m.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def load_matrix(path: str | Path) -> FeatureMatrix:
    """Read a CSV written by save_matrix (or schema-compatible)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if not header or header[-1] != LABEL_COLUMN:
            raise ValueError(f"{path}: missing trailing {LABEL_COLUMN!r} column")
        names = header[:-1]
        rows, labels = [], []
        for i, row in enumerate(reader):
            if len(row) != len(header):
                raise ValueError(f"{path} row {i}: expected {len(header)} cells")
            parsed = []
            for j, cell in enumerate(row[:-1]):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path} row {i}, column {names[j]!r}: "
                        f"non-numeric cell {cell!r}"
                    ) from None
            try:
                labels.append(int(row[-1]))
            except ValueError:
                raise ValueError(
                    f"{path} row {i}, column {LABEL_COLUMN!r}: "
                    f"non-numeric cell {row[-1]!r}"
                ) from None
            rows.append(parsed)
    data = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(names)))
    return FeatureMatrix(
        column_names=names,
        rows=data,
        labels=np.array(labels, dtype=np.int64),
    )
