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
per character of the longer one, on Python big integers.  ``lcs_length``
runs it once.  A partial ratio compares the shorter string with every window
of the longer one as long as it; ``_window_lcs`` runs the same steps on one
integer that holds a byte-aligned lane per window, with a guard bit above
each lane's needle bits to take its carry, so the windows advance together
whatever the needle's length.  The quadratic dynamic program and the
window-by-window scan are kept in the test suite as the oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .textops import normalize_text, tokenize

# Weighted-ratio cascade constants.
WRATIO_UNBASE_SCALE = 0.95
WRATIO_PARTIAL_SCALE = 0.9
WRATIO_LONG_PARTIAL_SCALE = 0.6
WRATIO_TRY_PARTIAL_RATIO = 1.5
WRATIO_LONG_RATIO = 8.0


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


def _window_lcs(a: str, b: str) -> int:
    """Longest common subsequence of needle ``a`` with any window of
    haystack ``b`` as long as ``a``; ``a`` is not empty and not longer
    than ``b``."""
    m = len(a)
    masks: dict[str, int] = {}
    for i, c in enumerate(a):
        masks[c] = masks.get(c, 0) | (1 << i)
    # window s is lane s: lane_bytes bytes holding the needle's bits and at
    # least one guard bit above them, which takes the lane's carry
    lane_bytes = m // 8 + 1
    lane_bits = 8 * lane_bytes
    mask_bytes = dict.fromkeys(b, bytes(lane_bytes))
    mask_bytes.update((c, mask.to_bytes(lane_bytes, "little")) for c, mask in masks.items())
    # lane k of ``hay`` holds the mask of haystack character k; shifted down
    # j lanes it feeds character s + j to window s
    hay = int.from_bytes(b"".join(map(mask_bytes.__getitem__, b)), "little")
    windows = len(b) - m + 1
    width = int.from_bytes(((1 << m) - 1).to_bytes(lane_bytes, "little") * windows, "little")
    v = width
    for _ in range(m):
        # u is a subset of v, so v - u borrows nothing from the lane above
        u = v & hay
        v = ((v + u) | (v - u)) & width
        hay >>= lane_bits
    # a window's LCS is the count of zero bits within its needle's width
    ones = np.bitwise_count(np.frombuffer(v.to_bytes(windows * lane_bytes, "little"), dtype=np.uint8))
    return m - int(ones.reshape(windows, lane_bytes).sum(axis=1, dtype=np.int64).min())


def _partial_score(s1: str, s2: str) -> int:
    a, b = (s1, s2) if len(s1) <= len(s2) else (s2, s1)
    if not a:
        return 100 if not b else 0
    # every window has the length of the shorter string, so the best window
    # has the longest LCS
    return _indel_score(_window_lcs(a, b), 2 * len(a))


def partial_ratio(s1: str, s2: str) -> int:
    """Best indel score of the shorter string against every equal-length
    window of the longer one."""
    return _partial_score(s1, s2)


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


def _wratio(n1: str, n2: str, scores: dict[str, int]) -> int:
    """Weighted ratio of two normalized strings: the best of several scaled
    scores; their partial ratio is computed only when their length ratio is
    at least 1.5.

    When the length ratio is below 1.5 the cascade compares the plain ratio
    against 0.95-scaled token sort/set ratios; otherwise it brings in the
    partial variants, scaled by 0.9 (0.6 when one string is more than 8x the
    other) and an extra 0.9 for the token forms.
    """
    if not n1 or not n2:
        return 100 if n1 == n2 else 0
    base = float(scores["qratio"])
    len_ratio = max(len(n1), len(n2)) / min(len(n1), len(n2))
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
            ps * _partial_score(n1, n2),
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
    the weighted ratio reuses the plain and token scores."""
    n1 = normalize_text(q1)
    n2 = normalize_text(q2)
    tokens1, tokens2 = tokenize(n1), tokenize(n2)
    sort1, sort2 = _sorted_join(tokens1), _sorted_join(tokens2)
    set1, set2 = set(tokens1), set(tokens2)
    joins = _token_set_joins(set1, set2) if set1 and set2 else []
    scores = {
        "qratio": indel_ratio(n1, n2),
        "token_sort_ratio": indel_ratio(sort1, sort2),
        "token_set_ratio": _token_set_score(set1, set2, [indel_ratio(a, b) for a, b in joins]),
        "partial_token_sort_ratio": _partial_score(sort1, sort2),
        "partial_token_set_ratio": _token_set_score(set1, set2, [_partial_score(a, b) for a, b in joins]),
    }
    return FuzzyFeatures(wratio=_wratio(n1, n2, scores), partial_ratio=_partial_score(q1, q2), **scores)
