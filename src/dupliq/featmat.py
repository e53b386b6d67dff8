"""Assembly and persistence of the 28-feature matrix.

The canonical column order is fixed by ``FEATURE_NAMES`` and versioned via
the CSV header; model files and golden tests depend on it.  The default
drop list (``DEFAULT_DROP_LIST``) removes the eight lowest-importance
columns, leaving the twenty retained by the reference study.

The matrix is built column by column: one embedding bag per distinct
question text (``embed.question_bag``), so a question that recurs across
pairs is looked up once; one length pass, one fuzzy pass
(``fuzzy.fuzzy_features``) and two transport solves per pair; and the seven
distances and four moments as array ops over the stacked mean vectors
(``embed.pair_distances``, ``embed.moments``).  A single row is the
matrix of a one-pair table.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import embed, fuzzy, textops
from .corpus import PairTable, QuestionPair
from .embed import EmbeddingTable

# the length and fuzzy columns are the fields of their per-pair results
BASIC_NAMES = tuple(f.name for f in fields(textops.BasicFeatures))
FUZZY_NAMES = tuple(f.name for f in fields(fuzzy.FuzzyFeatures))
FEATURE_NAMES = (
    *BASIC_NAMES,
    *FUZZY_NAMES,
    "wmd",
    "norm_wmd",
    *embed.DISTANCE_METRICS,
    "skew_q1",
    "skew_q2",
    "kurt_q1",
    "kurt_q2",
)
# Rows per block of the array columns (pairs for the distances, questions
# for the moments): a block's temporaries, a few arrays of block x dim
# floats, stay under a megabyte at 300 dimensions.
ARRAY_BLOCK = 64

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


def extract_matrix(table: PairTable, embeddings: EmbeddingTable) -> FeatureMatrix:
    """Extract features for every pair; output order follows the table.

    Each distinct question text gets one bag (``embed.question_bag``), held
    only until the last pair that asks it, so the bags in memory are those
    of questions still to come, not the table's.  The length, fuzzy and
    transport columns are computed pair by pair; the distances (of a
    block of pairs) and the moments (of a block of questions) are array ops
    over the bags' mean vectors.
    """
    pairs = table.rows
    if not pairs:
        return FeatureMatrix(list(FEATURE_NAMES), np.empty((0, len(FEATURE_NAMES))), table.labels)
    index: dict[str, int] = {}
    last_use: dict[str, int] = {}
    for k, p in enumerate(pairs):
        for text in (p.question1, p.question2):
            index.setdefault(text, len(index))
            last_use[text] = k
    means = np.empty((len(index), embeddings.dim))
    bags: dict[str, embed.QuestionBag] = {}
    per_pair = []
    for k, p in enumerate(pairs):
        q1, q2 = p.question1, p.question2
        for text in (q1, q2):
            if text not in bags:
                bags[text] = embed.question_bag(text, embeddings)
                means[index[text]] = bags[text].mean
        basic, fz = textops.basic_features(q1, q2), fuzzy.fuzzy_features(q1, q2)
        per_pair.append(
            [getattr(basic, name) for name in BASIC_NAMES]
            + [getattr(fz, name) for name in FUZZY_NAMES]
            + [embed.wmd(bags[q1], bags[q2]), embed.wmd(bags[q1], bags[q2], normalize_words=True)]
        )
        for text in (q1, q2):
            if last_use[text] == k:
                bags.pop(text, None)

    first = [index[p.question1] for p in pairs]
    second = [index[p.question2] for p in pairs]
    distances = [
        embed.pair_distances(means[first[s : s + ARRAY_BLOCK]], means[second[s : s + ARRAY_BLOCK]])
        for s in range(0, len(pairs), ARRAY_BLOCK)
    ]
    moments = [embed.moments(means[s : s + ARRAY_BLOCK]) for s in range(0, len(means), ARRAY_BLOCK)]
    skew, kurtosis = (np.concatenate(m) for m in zip(*moments))
    data = np.column_stack(
        [
            np.array(per_pair, dtype=np.float64),
            np.vstack(distances),
            skew[first],
            skew[second],
            kurtosis[first],
            kurtosis[second],
        ]
    )
    return FeatureMatrix(column_names=list(FEATURE_NAMES), rows=data, labels=table.labels)


def extract_row(pair: QuestionPair, table: EmbeddingTable) -> FeatureRow:
    """All 28 features of one cleaned question pair (``extract_matrix`` of
    a one-pair table)."""
    matrix = extract_matrix(PairTable((pair,)), table)
    return FeatureRow(values=matrix.rows[0], label=pair.is_duplicate)


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
