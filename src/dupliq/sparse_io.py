"""Single-file storage for sparse feature matrices with labels.

Written as a numpy .npz archive holding the CSR arrays plus the aligned
label vector, and the column names when the writer knows them: the file
``tfidf-featurize`` writes and ``--sparse`` reads.
"""

from __future__ import annotations

import zipfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp


def save_sparse_features(path: str | Path, X, labels, column_names=None) -> None:
    """Write ``X``, ``labels`` and, when given, ``column_names`` to ``path``
    under exactly that name: through a file handle, ``np.savez`` appends no
    ``.npz``."""
    X = sp.csr_matrix(X)
    named = {} if column_names is None else {"columns": np.array(column_names, dtype=str)}
    with open(path, "wb") as fh:
        np.savez(
            fh,
            data=X.data,
            indices=X.indices,
            indptr=X.indptr,
            shape=np.asarray(X.shape, dtype=np.int64),
            labels=np.asarray(labels, dtype=np.int64),
            **named,
        )


def load_sparse_features(path: str | Path) -> tuple[sp.csr_matrix, np.ndarray, list[str] | None]:
    """Matrix, labels and column names (None for a file written without
    them) of a file written by :func:`save_sparse_features`; one that is not
    such an archive (truncated, an array missing, CSR arrays or names that
    disagree with each other or with the labels) raises ValueError naming
    the file."""
    try:
        with np.load(path) as blob:
            X = sp.csr_matrix(
                (blob["data"], blob["indices"], blob["indptr"]),
                shape=tuple(blob["shape"]),
            )
            labels = blob["labels"]
            names = blob["columns"] if "columns" in blob.files else None
        X.check_format(full_check=True)
    except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a readable sparse feature file: {exc}") from None
    if labels.shape != (X.shape[0],):
        raise ValueError(f"{path}: {labels.size} labels for {X.shape[0]} rows")
    if names is not None and (names.shape != (X.shape[1],) or names.dtype.kind != "U"):
        raise ValueError(f"{path}: column names do not match its {X.shape[1]} columns")
    return X, labels, None if names is None else names.tolist()
