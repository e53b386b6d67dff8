import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from dupliq.embed import EmbeddingTable

# Property tests replay the same examples on every run, so the suite stays
# deterministic and its time bounded.
settings.register_profile("dupliq", derandomize=True, max_examples=25, deadline=None, database=None)
settings.load_profile("dupliq")


@pytest.fixture
def tiny_table() -> EmbeddingTable:
    """Hand-built 2-d embedding table used across embedding tests; its
    words are not stop words, so a question made of them keeps them all."""
    return EmbeddingTable(
        dim=2,
        vocab={
            "ant": np.array([3.0, 4.0]),
            "bee": np.array([1.0, 0.0]),
            "cat": np.array([0.0, 2.0]),
            "dog": np.array([-1.0, 1.0]),
        },
    )


@pytest.fixture
def word_table() -> EmbeddingTable:
    """Small word table with realistic-looking vocabulary, 3 dimensions."""
    rng = np.random.default_rng(7)
    words = [
        "learn", "python", "code", "program", "language", "fast", "best",
        "way", "start", "guide", "book", "online", "course", "year", "time",
        "Python", "India", "people",
    ]
    vocab = {w: rng.normal(size=3) for w in words}
    return EmbeddingTable(dim=3, vocab=vocab)
