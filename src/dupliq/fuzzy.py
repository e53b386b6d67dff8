"""Fuzzy string-similarity scores built on a normalized indel core.

Every public score is an integer in [0, 100].  The core similarity of two
strings is ``100 * 2 * LCS(s1, s2) / (len(s1) + len(s2))`` where LCS is the
longest common subsequence over unicode scalars; rounding to integer is
half-away-from-zero and happens once per public operation.

Empty-string convention (applied uniformly): two empty inputs are a perfect
match (100), exactly one empty input is a total mismatch (0).

Every LCS length comes from the bit-parallel recurrence of Allison & Dix
(1986) in the form of Hyyrö (2004): one bit per character of the shorter
string, one step ``v = ((v + u) | (v - u)) & width`` with ``u = v & mask``
per character of the longer one.  ``lcs_length`` runs it on one Python big
integer.  A partial ratio compares the shorter string with every window of
the longer one as long as it; ``_partial_lcs`` takes all the partial
problems of a pair at once and, for needles of at most 64 characters, runs
the recurrence on one numpy ``uint64`` lane per window of every problem, so
a step is a handful of array operations over all windows instead of a big
integer step per window.  Needles over 64 characters, rare in questions,
keep one ``lcs_length`` call per window.  The quadratic dynamic program and
the window-by-window scan are kept in the test suite as the oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .textops import normalize_text, tokenize

# Weighted-ratio cascade constants.
WRATIO_UNBASE_SCALE = 0.95
WRATIO_PARTIAL_SCALE = 0.9
WRATIO_LONG_PARTIAL_SCALE = 0.6
WRATIO_TRY_PARTIAL_RATIO = 1.5
WRATIO_LONG_RATIO = 8.0
# needles up to this many characters run in the uint64 kernel
_WORD_BITS = 64


def _round_score(x: float) -> int:
    # round half away from zero; scores are never negative
    return int(math.floor(x + 0.5))


def lcs_length(s1: str, s2: str) -> int:
    """Length of the longest common subsequence of two strings."""
    if not s1 or not s2:
        return 0
    if len(s1) > len(s2):
        s1, s2 = s2, s1
    masks: dict[str, int] = {}
    for i, c in enumerate(s1):
        masks[c] = masks.get(c, 0) | (1 << i)
    width = (1 << len(s1)) - 1
    v = width
    for c in s2:
        m = masks.get(c)
        if m is None:
            continue
        u = v & m
        v = ((v + u) | (v - u)) & width
    return len(s1) - v.bit_count()


def _indel_score(lcs: int, total: int) -> int:
    # 100 * 2 * lcs / total rounded half up, in integers: a float product
    # can land an exact half just below itself
    return (400 * lcs + total) // (2 * total)


def indel_ratio(s1: str, s2: str) -> int:
    """Normalized indel similarity of two raw strings, 0..100."""
    total = len(s1) + len(s2)
    if total == 0:
        return 100
    return _indel_score(lcs_length(s1, s2), total)


def _partial_lcs(problems: list[tuple[str, str]]) -> list[int]:
    """Longest common subsequence of each (needle, haystack) problem's needle
    with any window of its haystack as long as the needle; no needle is
    longer than its haystack."""
    best = [0] * len(problems)
    for k, (a, b) in enumerate(problems):
        if len(a) > _WORD_BITS:
            for start in range(len(b) - len(a) + 1):
                best[k] = max(best[k], lcs_length(a, b[start : start + len(a)]))
                if best[k] == len(a):
                    break
    packed = [k for k, (a, _) in enumerate(problems) if 0 < len(a) <= _WORD_BITS]
    if not packed:
        return best
    m = [len(problems[k][0]) for k in packed]
    n = [len(problems[k][1]) for k in packed]
    text = "".join(problems[k][0] for k in packed) + "".join(problems[k][1] for k in packed)
    # one uint32 per unicode scalar; lone surrogates pass as their own value
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    # each needle as a row of 64 code points, padded with 2**32 - 1, no code point
    needles = np.full((len(packed), _WORD_BITS), np.uint32(0xFFFFFFFF))
    offset = 0
    for row, length in enumerate(m):
        needles[row, :length] = codes[offset : offset + length]
        offset += length
    # each haystack character's mask: bit i is set where it equals character i
    # of its own problem's needle
    matches = codes[offset:, None] == needles[np.repeat(np.arange(len(packed)), n)]
    hay_masks = np.packbits(matches, axis=1, bitorder="little").view("<u8").ravel()
    # row i of ``ahead`` is a view of haystack masks i .. i + 63; the zeros
    # after the last haystack keep every row inside the buffer
    padded = np.concatenate([hay_masks, np.zeros(_WORD_BITS, dtype=np.uint64)])
    ahead = as_strided(padded, shape=(hay_masks.size, _WORD_BITS), strides=2 * padded.strides)
    # columns[j] holds the mask that step j feeds each window: window s of a
    # problem reads its own haystack's character s + j while j < m, and a
    # zero after, which leaves v as it is
    windows = [b - a + 1 for a, b in zip(m, n)]
    columns = np.zeros((max(m), sum(windows)), dtype=np.uint64)
    hay = col = 0
    for a, b, w in zip(m, n, windows):
        columns[:a, col : col + w] = ahead[hay : hay + w, :a].T
        hay += b
        col += w
    # Hyyrö's recurrence v = ((v + u) | (v - u)) & width with u = v & mask,
    # the & width deferred to the end: carries and borrows only move up, so
    # bits above a needle's width never reach the bits below it, and uint64
    # wrap-around drops what a big int would carry past bit 63
    v = np.full(columns.shape[1], np.uint64(0xFFFFFFFFFFFFFFFF))
    u = np.empty_like(v)
    carried = np.empty_like(v)
    for mask in columns:
        np.bitwise_and(v, mask, out=u)
        np.add(v, u, out=carried)
        np.subtract(v, u, out=v)
        np.bitwise_or(v, carried, out=v)
    window_m = np.repeat(np.array(m, dtype=np.uint64), windows)
    width = np.right_shift(np.uint64(0xFFFFFFFFFFFFFFFF), np.uint64(_WORD_BITS) - window_m)
    # the LCS of a window is the count of zero bits within its needle's width
    first = np.cumsum(windows) - windows
    for k, lcs in zip(packed, np.maximum.reduceat(np.bitwise_count(~v & width), first).tolist()):
        best[k] = lcs
    return best


def _partial_scores(pairs: list[tuple[str, str]]) -> list[int]:
    """The partial ratio of each pair of strings, from one kernel call."""
    problems = [(s1, s2) if len(s1) <= len(s2) else (s2, s1) for s1, s2 in pairs]
    return [
        _indel_score(lcs, 2 * len(a)) if a else (100 if not b else 0)
        for (a, b), lcs in zip(problems, _partial_lcs(problems))
    ]


def partial_ratio(s1: str, s2: str) -> int:
    """Best indel score of the shorter string against every equal-length
    window of the longer one."""
    # every window has the length of the shorter string, so the best window
    # has the longest LCS
    return _partial_scores([(s1, s2)])[0]


def _sorted_join(tokens: list[str]) -> str:
    return " ".join(sorted(tokens))


def _token_set_joins(set1: set[str], set2: set[str]) -> list[tuple[str, str]]:
    """The three string pairs a token-set score takes the best of: the sorted
    intersection, and it followed by the rest of each side."""
    t0 = " ".join(sorted(set1 & set2))
    t1 = (t0 + " " + " ".join(sorted(set1 - set2))).strip()
    t2 = (t0 + " " + " ".join(sorted(set2 - set1))).strip()
    return [(t0, t1), (t0, t2), (t1, t2)]


def _token_set_score(set1: set[str], set2: set[str], scores: list[int]) -> int:
    if not set1 and not set2:
        return 100
    if not set1 or not set2:
        return 0
    # rounding is monotone, so the rounded maximum is the maximum rounded
    return max(scores)


def _length_ratio(n1: str, n2: str) -> float:
    return max(len(n1), len(n2)) / min(len(n1), len(n2))


def _wratio(n1: str, n2: str, scores: dict[str, int], partial: int | None) -> int:
    """Weighted ratio of two normalized strings: the best of several scaled
    scores; ``partial`` is their partial ratio, needed only when their length
    ratio is at least 1.5.

    When the length ratio is below 1.5 the cascade compares the plain ratio
    against 0.95-scaled token sort/set ratios; otherwise it brings in the
    partial variants, scaled by 0.9 (0.6 when one string is more than 8x the
    other) and an extra 0.9 for the token forms.
    """
    if not n1 or not n2:
        return 100 if n1 == n2 else 0
    base = float(scores["qratio"])
    len_ratio = _length_ratio(n1, n2)
    if len_ratio < WRATIO_TRY_PARTIAL_RATIO:
        best = max(
            base,
            WRATIO_UNBASE_SCALE * scores["token_sort_ratio"],
            WRATIO_UNBASE_SCALE * scores["token_set_ratio"],
        )
    else:
        ps = WRATIO_LONG_PARTIAL_SCALE if len_ratio > WRATIO_LONG_RATIO else WRATIO_PARTIAL_SCALE
        best = max(
            base,
            ps * partial,
            0.9 * ps * scores["partial_token_sort_ratio"],
            0.9 * ps * scores["partial_token_set_ratio"],
        )
    return _round_score(best)


@dataclass(frozen=True)
class FuzzyFeatures:
    qratio: int
    wratio: int
    partial_ratio: int
    token_set_ratio: int
    token_sort_ratio: int
    partial_token_set_ratio: int
    partial_token_sort_ratio: int


def fuzzy_features(q1: str, q2: str) -> FuzzyFeatures:
    """The seven fuzzy-match scores for a question pair, each computed once:
    every partial ratio of the pair comes from one kernel call, and the
    weighted ratio reuses the plain, token and partial scores."""
    n1 = normalize_text(q1)
    n2 = normalize_text(q2)
    tokens1, tokens2 = tokenize(n1), tokenize(n2)
    sort1, sort2 = _sorted_join(tokens1), _sorted_join(tokens2)
    set1, set2 = set(tokens1), set(tokens2)
    joins = _token_set_joins(set1, set2) if set1 and set2 else []
    # the weighted ratio needs the normalized partial only on its partial branch
    wants_partial = bool(n1 and n2) and _length_ratio(n1, n2) >= WRATIO_TRY_PARTIAL_RATIO
    pairs = [(q1, q2), (sort1, sort2), *joins] + ([(n1, n2)] if wants_partial else [])
    partials = _partial_scores(pairs)
    scores = {
        "qratio": indel_ratio(n1, n2),
        "token_sort_ratio": indel_ratio(sort1, sort2),
        "token_set_ratio": _token_set_score(set1, set2, [indel_ratio(a, b) for a, b in joins]),
        "partial_token_sort_ratio": partials[1],
        "partial_token_set_ratio": _token_set_score(set1, set2, partials[2 : 2 + len(joins)]),
    }
    wratio = _wratio(n1, n2, scores, partials[-1] if wants_partial else None)
    return FuzzyFeatures(wratio=wratio, partial_ratio=partials[0], **scores)
