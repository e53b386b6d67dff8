"""Pre-trained word vectors and the embedding-based pair features.

Covers loading GloVe text and word2vec binary files (gzip handled
transparently for both), the frozen rows of a network's pre-trained
branches (:func:`embedding_matrix_from_table`), the per-question bag of
in-vocabulary words (:func:`question_bag`, built once per distinct
question and shared by every embedding feature), the word-mover transport
distance between two bags, and whole-column features of the bags' mean
vectors stacked one per row: seven distances between paired rows
(:func:`pair_distances`) and each row's component skewness/kurtosis
(:func:`moments`).

The word-mover distance (Kusner et al. 2015) is an exact optimal
transport between word-count proportions.  :func:`solve_transport` solves
it on the integer counts: both sides are scaled to the least common
multiple L of their token totals, each word is repeated as many times as
its scaled count, and the resulting L x L assignment problem has the same
optimum as the linear program, because the transportation polytope with
integer margins has integer vertices.  Past ``ASSIGNMENT_MAX_TOKENS`` the
cubic assignment costs more than the linear program, which then solves it.

Degenerate inputs are imputed so the downstream feature matrix stays
finite: a transport distance with an empty side is ``WMD_EMPTY_SENTINEL``,
cosine with exactly one zero vector is 1 (0 when both are zero), a
zero-denominator Bray-Curtis is 0, and the moments of a constant row are
(0, 0).
"""

from __future__ import annotations

import gzip
import math
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._files import named_faults
from .textops import remove_stopwords, scrub_text, tokenize

WMD_EMPTY_SENTINEL = 1.0

# word vectors are float32 data (word2vec's binary format stores them so): a
# component that is NaN or beyond float32's range marks a damaged file, and
# would overflow the distances' squares
MAX_COMPONENT = float(np.finfo(np.float32).max)

# Largest scaled token total L solved as an assignment.  Measured on one
# core of a shared 2-vCPU x86 box with 300-d word vectors: at L = 128 the
# assignment took 1.5-4.2 ms (slowest with one to three distinct words on
# one side) against 4-66 ms for the linear program; at L = 200-250 the two
# met (3-5 ms each), and at L = 432 the assignment took 17 ms against 6 ms.
ASSIGNMENT_MAX_TOKENS = 128

# in the order of the feature matrix's distance columns
DISTANCE_METRICS = (
    "cosine",
    "minkowski3",
    "cityblock",
    "euclidean",
    "jaccard",
    "canberra",
    "braycurtis",
)


@dataclass
class EmbeddingTable:
    dim: int
    vocab: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.vocab)

    def lookup(self, token: str) -> np.ndarray | None:
        """Exact-match lookup, falling back to the lowercased token."""
        vec = self.vocab.get(token)
        if vec is None:
            vec = self.vocab.get(token.lower())
        return vec


@contextmanager
def _open_maybe_gzip(path: str | Path, mode: str):
    """The file, decompressed when it is gzip, and read as UTF-8 in text
    mode; a gzip stream cut short or damaged, a bad gzip header or CRC, or
    text that is not UTF-8 raises ValueError naming ``path`` wherever it is
    read."""
    with open(path, "rb") as probe:
        magic = probe.read(2)
    encoding = "utf-8" if "t" in mode else None
    with named_faults(path):
        if magic != b"\x1f\x8b":
            with open(path, mode, encoding=encoding) as fh:
                yield fh
            return
        try:
            with gzip.open(path, mode, encoding=encoding) as fh:
                yield fh
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ValueError(f"{path}: damaged gzip stream: {exc}") from None


def load_glove_text(path: str | Path, vocab_filter: set[str] | None = None) -> EmbeddingTable:
    """Load a GloVe text file: one ``word v1 ... vdim`` line per word.

    ``vocab_filter`` keeps only the listed words (dimension checking still
    covers every line); it keeps memory proportional to the corpus instead
    of the embedding file.
    """
    vocab: dict[str, np.ndarray] = {}
    dim = None
    with _open_maybe_gzip(path, "rt") as fh:
        for line_num, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if parts == [""]:
                continue
            if dim is None:
                dim = len(parts) - 1
                if dim < 1:
                    raise ValueError(f"{path} line {line_num}: no vector components")
            if len(parts) - 1 != dim:
                raise ValueError(
                    f"{path} line {line_num}: expected {dim} components, "
                    f"found {len(parts) - 1}"
                )
            if vocab_filter is not None and parts[0] not in vocab_filter:
                continue
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"{path} line {line_num}: {exc}") from None
            if not (np.abs(vec) <= MAX_COMPONENT).all():
                raise ValueError(f"{path} line {line_num}: a vector component is NaN or beyond float32's range")
            vocab[parts[0]] = vec
    if dim is None:
        raise ValueError(f"{path}: empty embedding file")
    return EmbeddingTable(dim=dim, vocab=vocab)


def _parse_w2v_header(fh, path) -> tuple[int, int]:
    header = b""
    while not header.endswith(b"\n"):
        ch = fh.read(1)
        if not ch:
            raise ValueError(f"{path}: missing header line")
        header += ch
        if len(header) > 128:
            raise ValueError(f"{path}: header line too long to be valid")
    try:
        vocab_size, dim = (int(x) for x in header.split())
    except ValueError:
        raise ValueError(f"{path}: unparsable header {header!r}") from None
    return vocab_size, dim


def load_word2vec_binary(
    path: str | Path,
    max_words: int | None = None,
    vocab_filter: set[str] | None = None,
) -> EmbeddingTable:
    """Load a word2vec binary file: ASCII ``vocab_size dim`` header, then per
    word the utf-8 bytes terminated by a space followed by dim little-endian
    float32 values.  Newlines between records are tolerated.

    ``max_words`` stops after that many records; ``vocab_filter`` stores
    only the listed words while still scanning the full file.
    """
    vocab: dict[str, np.ndarray] = {}
    with _open_maybe_gzip(path, "rb") as fh:
        vocab_size, dim = _parse_w2v_header(fh, path)
        vec_bytes = 4 * dim
        limit = vocab_size if max_words is None else min(max_words, vocab_size)
        for i in range(limit):
            word = bytearray()
            while True:
                ch = fh.read(1)
                if not ch:
                    raise ValueError(
                        f"{path}: truncated after {i} of {vocab_size} words"
                    )
                if ch == b" ":
                    break
                if ch != b"\n":
                    word.extend(ch)
            raw = fh.read(vec_bytes)
            if len(raw) != vec_bytes:
                raise ValueError(f"{path}: truncated after {i} of {vocab_size} words")
            text = word.decode("utf-8", errors="replace")
            if vocab_filter is not None and text not in vocab_filter:
                continue
            vec = np.frombuffer(raw, dtype="<f4").astype(np.float64)
            if not (np.abs(vec) <= MAX_COMPONENT).all():
                raise ValueError(f"{path}: word {text!r}: a vector component is NaN or infinite")
            vocab[text] = vec
    return EmbeddingTable(dim=dim, vocab=vocab)


def embedding_matrix_from_table(
    vocab_index: dict[str, int], table: EmbeddingTable, vocab_size: int
) -> np.ndarray:
    """Rows of pre-trained vectors aligned with token indices.

    Index 0 is the padding row; words missing from the table stay zero.
    """
    out = np.zeros((vocab_size, table.dim))
    for word, idx in vocab_index.items():
        vec = table.lookup(word)
        if vec is not None:
            out[idx] = vec
    return out


def corpus_vocabulary(table) -> set[str]:
    """Token forms a pair table can look up: raw scrubbed and lowercased.

    Use as ``vocab_filter`` for the loaders to avoid holding a multi-million
    word embedding file in memory.
    """
    words: set[str] = set()
    for r in table:
        for text in (r.question1, r.question2):
            for tok in tokenize(scrub_text(text)):
                words.add(tok)
                words.add(tok.lower())
    return words


@dataclass(frozen=True)
class QuestionBag:
    """Sorted distinct vocabulary keys of a question's tokens, how often
    each occurs, their word vectors, and the mean vector of its tokens in
    token order (zeros when none is in the vocabulary)."""

    words: list[str]
    counts: np.ndarray
    vectors: np.ndarray
    mean: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        """Word proportions: the counts over the bag's token total."""
        return self.counts / self.counts.sum()


def question_bag(text: str, table: EmbeddingTable) -> QuestionBag:
    """Bag of in-vocabulary words of one question.

    Punctuation is stripped with case preserved (the reference binary
    vocabulary is cased) and stop words are removed.  A token resolves to
    its exact vocabulary key, else to its lowercased form, else is dropped.
    """
    counts: dict[str, int] = {}
    found = []
    for t in remove_stopwords(tokenize(scrub_text(text))):
        key = t if t in table.vocab else t.lower()
        vec = table.vocab.get(key)
        if vec is None:
            continue
        counts[key] = counts.get(key, 0) + 1
        found.append(vec)
    if not found:
        return QuestionBag(
            [], np.zeros(0, dtype=np.int64), np.zeros((0, table.dim)), np.zeros(table.dim)
        )
    words = sorted(counts)
    return QuestionBag(
        words=words,
        counts=np.array([counts[w] for w in words], dtype=np.int64),
        vectors=np.stack([table.vocab[w] for w in words]),
        mean=np.mean(found, axis=0),
    )


def linear_sum_assignment(cost: np.ndarray):
    """scipy's optimal assignment of ``cost``'s rows to its columns.

    ``scipy.optimize`` is imported at the first transport solved, not with
    this module: the import takes most of the start-up of ``dupliq.cli``,
    and most commands solve no transport."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def solve_transport(counts1, counts2, costs: np.ndarray) -> float:
    """Minimum cost of moving the proportions ``counts1 / counts1.sum()``
    onto ``counts2 / counts2.sum()`` over the ground costs ``costs[i, j]``.

    The masses are nonnegative integers with positive totals N1 and N2.
    Scaled to L = lcm(N1, N2) tokens a side, source i supplies
    ``counts1[i] * L / N1`` unit tokens and sink j takes
    ``counts2[j] * L / N2``; repeating row i and column j of ``costs`` that
    many times gives an L x L assignment problem.  A transportation problem
    with integer margins has an integer optimal flow, which is a perfect
    matching of that expansion, so the optimal assignment divided by L is
    the exact transport optimum.  Above ``ASSIGNMENT_MAX_TOKENS`` the same
    optimum comes from the transportation linear program.
    """
    c1, c2 = np.asarray(counts1), np.asarray(counts2)
    if c1.dtype.kind not in "iu" or c2.dtype.kind not in "iu":
        raise ValueError("transport masses must be integer counts")
    n1, n2 = int(c1.sum()), int(c2.sum())
    if n1 <= 0 or n2 <= 0 or (c1 < 0).any() or (c2 < 0).any():
        raise ValueError("transport masses must be nonnegative with a positive total")
    total = math.lcm(n1, n2)
    if total > ASSIGNMENT_MAX_TOKENS:
        return _transport_lp(c1 / n1, c2 / n2, costs)
    expanded = costs.repeat(c1 * (total // n1), axis=0).repeat(c2 * (total // n2), axis=1)
    rows, cols = linear_sum_assignment(expanded)
    return float(expanded[rows, cols].sum() / total)


def _transport_lp(weights1: np.ndarray, weights2: np.ndarray, costs: np.ndarray) -> float:
    """The transport optimum as the transportation linear program."""
    from scipy.optimize import linprog

    m, n = costs.shape
    # flow conservation rows: one per source, one per sink (last sink row
    # is redundant and dropped to keep the system full rank)
    a_eq = np.zeros((m + n - 1, m * n))
    for i in range(m):
        a_eq[i, i * n : (i + 1) * n] = 1.0
    for j in range(n - 1):
        a_eq[m + j, j::n] = 1.0
    b_eq = np.concatenate([weights1, weights2[:-1]])
    res = linprog(costs.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:  # pragma: no cover - tiny feasible LPs always solve
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def wmd(bag1: QuestionBag, bag2: QuestionBag, normalize_words: bool = False) -> float:
    """Word-mover distance between two question bags.

    Exact optimal transport between the bags' word proportions with
    euclidean ground costs between word vectors (unit-normalized first when
    ``normalize_words`` is set).  An empty side returns
    ``WMD_EMPTY_SENTINEL``; the same words in the same proportions return 0.
    """
    if not bag1.words or not bag2.words:
        return WMD_EMPTY_SENTINEL
    if bag1.words == bag2.words and np.array_equal(
        bag1.counts * bag2.counts.sum(), bag2.counts * bag1.counts.sum()
    ):
        return 0.0
    v1, v2 = bag1.vectors, bag2.vectors
    if normalize_words:
        v1 = v1 / np.maximum(np.linalg.norm(v1, axis=1, keepdims=True), 1e-300)
        v2 = v2 / np.maximum(np.linalg.norm(v2, axis=1, keepdims=True), 1e-300)
    diff = v1[:, None, :] - v2[None, :, :]
    costs = np.sqrt((diff * diff).sum(axis=2))
    return solve_transport(bag1.counts, bag2.counts, costs)


def pair_distances(U1, U2) -> np.ndarray:
    """The seven component-wise distances between row i of ``U1`` and row i
    of ``U2``: one row per pair, one column per name of ``DISTANCE_METRICS``
    in that order."""
    x = np.asarray(U1, dtype=float)
    y = np.asarray(U2, dtype=float)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError(f"expected two (n, dim) arrays of one shape: {x.shape} vs {y.shape}")
    n = len(x)
    diff = np.abs(x - y)
    cityblock = diff.sum(axis=1)
    # np.vecdot is np.dot row by row, and a norm is the root of a vector's
    # dot with itself, as in np.linalg.norm; np.einsum rounds some rows
    # differently.  A zero vector's cosine similarity is 1 to another zero
    # vector and 0 to any other.
    nx, ny = np.sqrt(np.vecdot(x, x)), np.sqrt(np.vecdot(y, y))
    both = (nx != 0) & (ny != 0)
    similarity = np.divide(np.vecdot(x, y), nx * ny, out=(nx == ny).astype(float), where=both)
    den = np.abs(x) + np.abs(y)
    canberra = np.divide(diff, den, out=np.zeros_like(diff), where=den != 0).sum(axis=1)
    den = np.abs(x + y).sum(axis=1)
    braycurtis = np.divide(cityblock, den, out=np.zeros(n), where=den != 0)
    either = (x != 0) | (y != 0)
    union = either.sum(axis=1)
    jaccard = np.divide(((x != y) & either).sum(axis=1), union, out=np.zeros(n), where=union != 0)
    columns = {
        "cosine": 1.0 - similarity,
        "minkowski3": np.cbrt((diff**3).sum(axis=1)),
        "cityblock": cityblock,
        "euclidean": np.sqrt((diff**2).sum(axis=1)),
        "jaccard": jaccard,
        "canberra": canberra,
        "braycurtis": braycurtis,
    }
    return np.column_stack([columns[m] for m in DISTANCE_METRICS])


def moments(U) -> tuple[np.ndarray, np.ndarray]:
    """Sample skewness and excess kurtosis of each row's components.

    Central-moment definitions: skew = m3 / m2^1.5, kurtosis = m4 / m2^2 - 3.
    A constant row (m2 = 0) is imputed to (0, 0).
    """
    x = np.asarray(U, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError(f"moments need rows of at least 2 components, got shape {x.shape}")
    centered = x - x.mean(axis=1, keepdims=True)
    m2, m3, m4 = ((centered**k).mean(axis=1) for k in (2, 3, 4))
    # each power is a float's own: numpy's array power and square round some
    # m2 ** 1.5 and m2 ** 2 otherwise
    powers = np.array([(m**1.5, m**2) for m in m2.tolist()]).reshape(-1, 2)
    live = m2 != 0.0
    skew = np.divide(m3, powers[:, 0], out=np.zeros_like(m2), where=live)
    kurtosis = np.divide(m4, powers[:, 1], out=np.full_like(m2, 3.0), where=live) - 3.0
    return skew, kurtosis
