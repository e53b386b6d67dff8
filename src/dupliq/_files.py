"""Reading input files so that a damaged one names itself: a fault in its
bytes raises ValueError with the file's path, which the CLI reports as a
contract error (exit 1)."""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def named_faults(path: str | Path):
    """Re-raise a text-decoding or CSV fault met inside the block as a
    ValueError naming ``path``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_json(path: str | Path):
    """The JSON document in ``path``; raises ValueError naming the file when
    it is not UTF-8 JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: not a JSON document: {exc}") from None
