"""Question-pair dataset loading, statistics, cleaning, and splitting.

The input format is the released question-pair TSV: a header line
``id qid1 qid2 question1 question2 is_duplicate`` followed by one pair per
row, tab-separated with standard double-quote field quoting (quoted fields
may contain tabs and newlines).
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EXPECTED_HEADER = ["id", "qid1", "qid2", "question1", "question2", "is_duplicate"]

# Rows with either question this short are just punctuation or stray
# characters; they are dropped by clean().
MIN_QUESTION_LENGTH = 6


class RowError(ValueError):
    """A data row that violates the TSV contract, with its line number."""

    def __init__(self, line_num: int, message: str):
        super().__init__(f"line {line_num}: {message}")
        self.line_num = line_num


@dataclass(frozen=True)
class QuestionPair:
    row_id: int
    qid1: int
    qid2: int
    question1: str
    question2: str
    is_duplicate: int


@dataclass(frozen=True)
class PairTable:
    rows: tuple[QuestionPair, ...]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, i: int) -> QuestionPair:
        return self.rows[i]

    @property
    def labels(self) -> np.ndarray:
        return np.array([r.is_duplicate for r in self.rows], dtype=np.int64)


@dataclass
class CorpusStats:
    total_pairs: int
    positives: int
    negatives: int
    avg_len_q1: float
    avg_len_q2: float
    sum_len_q1: int
    sum_len_q2: int
    max_len_q1: int
    max_len_q2: int
    short_q1: int
    short_q2: int
    question_occurrence: Counter = field(default_factory=Counter)


def _parse_row(row: list[str], line_num: int) -> QuestionPair:
    if len(row) != 6:
        raise RowError(line_num, f"expected 6 fields, found {len(row)}")
    label = row[5]
    if label not in ("0", "1"):
        raise RowError(line_num, f"is_duplicate must be 0 or 1, found {label!r}")
    try:
        row_id, qid1, qid2 = int(row[0]), int(row[1]), int(row[2])
    except ValueError as exc:
        raise RowError(line_num, f"non-integer id field: {exc}") from None
    return QuestionPair(row_id, qid1, qid2, row[3], row[4], int(label))


def load_pairs(path: str | Path, skip_bad_rows: bool = False) -> PairTable:
    """Load a question-pair TSV. Bad rows raise RowError unless skipped."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter="\t", quotechar='"')
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty, expected a header line")
        if header != EXPECTED_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        rows = []
        for row in reader:
            try:
                rows.append(_parse_row(row, reader.line_num))
            except RowError:
                if not skip_bad_rows:
                    raise
    return PairTable(tuple(rows))


def save_pairs(table: PairTable, path: str | Path) -> None:
    """Write a PairTable back to TSV; the inverse of load_pairs."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", quotechar='"')
        writer.writerow(EXPECTED_HEADER)
        for r in table:
            writer.writerow(
                [r.row_id, r.qid1, r.qid2, r.question1, r.question2, r.is_duplicate]
            )


def clean(table: PairTable) -> PairTable:
    """Drop rows where either question is shorter than six characters.

    Lengths count unicode scalars including whitespace.  Idempotent.
    """
    kept = tuple(
        r
        for r in table
        if len(r.question1) >= MIN_QUESTION_LENGTH
        and len(r.question2) >= MIN_QUESTION_LENGTH
    )
    return PairTable(kept)


def stratified_indices(
    y: np.ndarray, test_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split index arrays preserving class proportions.

    The test side gets ``round(test_fraction * n)`` elements, apportioned to
    classes by largest remainder, so per-class counts are within one of the
    exact proportional share.  Deterministic in the seed.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    y = np.asarray(y)
    n = len(y)
    classes, counts = np.unique(y, return_counts=True)
    if counts.min() < 2:
        raise ValueError("need at least 2 rows per class to stratify")
    target_total = int(round(test_fraction * n))

    quotas = target_total * counts / n
    takes = np.floor(quotas).astype(int)
    remainder = target_total - takes.sum()
    if remainder > 0:
        # hand leftover slots to the largest fractional parts; ties go to
        # the lower class label for determinism
        order = np.lexsort((np.arange(len(classes)), -(quotas - takes)))
        takes[order[:remainder]] += 1
    takes = np.minimum(takes, counts)

    rng = np.random.default_rng(seed)
    test_parts, train_parts = [], []
    for cls, take in zip(classes, takes):
        idx = np.flatnonzero(y == cls)
        perm = rng.permutation(len(idx))
        test_parts.append(idx[perm[:take]])
        train_parts.append(idx[perm[take:]])
    test_idx = np.sort(np.concatenate(test_parts))
    train_idx = np.sort(np.concatenate(train_parts))
    return train_idx, test_idx


def stratified_split(
    table: PairTable, test_fraction: float, seed: int
) -> tuple[PairTable, PairTable]:
    """Partition a table into train/test with proportionate class shares."""
    train_idx, test_idx = stratified_indices(table.labels, test_fraction, seed)
    rows = table.rows
    train = PairTable(tuple(rows[i] for i in train_idx))
    test = PairTable(tuple(rows[i] for i in test_idx))
    return train, test


def corpus_stats(table: PairTable) -> CorpusStats:
    """Dataset-level statistics over both question columns."""
    occurrence: Counter = Counter()
    sum1 = sum2 = 0
    max1 = max2 = 0
    short1 = short2 = 0
    positives = 0
    for r in table:
        l1, l2 = len(r.question1), len(r.question2)
        sum1 += l1
        sum2 += l2
        max1 = max(max1, l1)
        max2 = max(max2, l2)
        if l1 <= 5:
            short1 += 1
        if l2 <= 5:
            short2 += 1
        positives += r.is_duplicate
        occurrence[r.question1] += 1
        occurrence[r.question2] += 1
    n = len(table)
    return CorpusStats(
        total_pairs=n,
        positives=positives,
        negatives=n - positives,
        avg_len_q1=sum1 / n if n else 0.0,
        avg_len_q2=sum2 / n if n else 0.0,
        sum_len_q1=sum1,
        sum_len_q2=sum2,
        max_len_q1=max1,
        max_len_q2=max2,
        short_q1=short1,
        short_q2=short2,
        question_occurrence=occurrence,
    )
