import random
import string

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dupliq import fuzzy
from dupliq.textops import normalize_text

from oracles import (
    fuzzy_features_oracle,
    indel_oracle,
    partial_oracle,
    token_set_oracle,
    token_sort_oracle,
    wratio_oracle,
)


def test_indel_examples():
    assert fuzzy.indel_ratio("abc", "abc") == 100
    assert fuzzy.indel_ratio("abc", "xyz") == 0
    assert fuzzy.indel_ratio("abcd", "abce") == 75
    assert fuzzy.indel_ratio("", "") == 100


def test_partial_examples():
    assert fuzzy.partial_ratio("abc", "zzabczz") == 100
    assert fuzzy.partial_ratio("abc", "abc") == 100
    assert fuzzy.partial_ratio("abx", "zzabczz") == 67
    assert fuzzy.partial_ratio("", "x") == 0
    assert fuzzy.partial_ratio("", "") == 100


def test_token_sort_examples():
    assert fuzzy.fuzzy_features("world hello", "hello world").token_sort_ratio == 100
    # oracle value: sorted joins are "a b" vs "a b c", LCS 3 over lengths 3+5
    assert fuzzy.fuzzy_features("a b", "b a c").token_sort_ratio == 75
    assert fuzzy.fuzzy_features("", "").token_sort_ratio == 100


def test_token_set_examples():
    assert fuzzy.fuzzy_features("new york is big", "big new york").token_set_ratio == 100
    for s in ["", "abc", "a b c", "What is AI?"]:
        assert fuzzy.fuzzy_features(s, s).token_set_ratio == 100
    assert fuzzy.fuzzy_features("a", "b").token_set_ratio == 0
    # one side without tokens: the token scores are total mismatches
    feats = fuzzy.fuzzy_features("?!", "a b")
    assert (feats.token_set_ratio, feats.partial_token_set_ratio) == (0, 0)
    assert (feats.token_sort_ratio, feats.partial_token_sort_ratio) == (0, 0)


def test_wratio_examples():
    assert fuzzy.fuzzy_features("abc", "abc").wratio == 100
    assert fuzzy.fuzzy_features("a", "").wratio == 0
    # normalizing empties both sides: a perfect match
    assert fuzzy.fuzzy_features("?", "!!").wratio == 100
    long_pair = ("what is ai", "what is ai really really really long tail")
    # long branch of the cascade: partial ratio is scaled by 0.9
    feats = fuzzy.fuzzy_features(*long_pair)
    ps = 0.9
    cascade = max(
        fuzzy.indel_ratio(*long_pair),
        ps * fuzzy.partial_ratio(*long_pair),
        0.9 * ps * feats.partial_token_sort_ratio,
        0.9 * ps * feats.partial_token_set_ratio,
    )
    assert feats.wratio == round(cascade) == wratio_oracle(*long_pair)
    # more than 8x longer: the 0.6 scale
    very_long = ("ai", "what is ai really really really long tail")
    assert fuzzy.fuzzy_features(*very_long).wratio == wratio_oracle(*very_long)


def test_fuzzy_features_identical_and_disjoint():
    for q in ["", "what is ai", "How do I learn Python?"]:
        feats = fuzzy.fuzzy_features(q, q)
        assert all(v == 100 for v in vars(feats).values())
    feats = fuzzy.fuzzy_features("", "x")
    assert all(v == 0 for v in vars(feats).values())


GOLDEN_PAIR = ("How do I learn Python?", "How can I learn Python?")
# frozen from the DP/window oracle
GOLDEN_VALUES = {
    "qratio": 88,
    "wratio": 88,
    "partial_ratio": 86,
    "token_set_ratio": 92,
    "token_sort_ratio": 88,
    "partial_token_set_ratio": 100,
    "partial_token_sort_ratio": 90,
}


def test_fuzzy_features_golden():
    feats = fuzzy.fuzzy_features(*GOLDEN_PAIR)
    got = vars(feats)
    assert all(0 <= v <= 100 for v in got.values())
    assert got == GOLDEN_VALUES


def _random_pairs(count, max_len, seed):
    rng = random.Random(seed)
    alphabet = string.ascii_lowercase[:6] + " "
    for _ in range(count):
        s1 = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, max_len + 1)))
        s2 = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, max_len + 1)))
        yield s1, s2


def test_indel_matches_dp_oracle():
    for s1, s2 in _random_pairs(2000, 12, seed=2):
        assert fuzzy.indel_ratio(s1, s2) == indel_oracle(s1, s2), (s1, s2)


def test_partial_matches_window_oracle():
    for s1, s2 in _random_pairs(2000, 12, seed=3):
        assert fuzzy.partial_ratio(s1, s2) == partial_oracle(s1, s2), (s1, s2)


def test_token_ratios_match_oracle():
    for s1, s2 in _random_pairs(1500, 12, seed=4):
        feats = fuzzy.fuzzy_features(s1, s2)
        assert feats.token_sort_ratio == token_sort_oracle(s1, s2), (s1, s2)
        assert feats.partial_token_sort_ratio == token_sort_oracle(s1, s2, True), (s1, s2)
        assert feats.token_set_ratio == token_set_oracle(s1, s2), (s1, s2)
        assert feats.partial_token_set_ratio == token_set_oracle(s1, s2, True), (s1, s2)


def test_scores_in_range_and_symmetric():
    for s1, s2 in _random_pairs(400, 16, seed=5):
        feats1 = vars(fuzzy.fuzzy_features(s1, s2))
        feats2 = vars(fuzzy.fuzzy_features(s2, s1))
        assert all(0 <= v <= 100 for v in feats1.values())
        assert feats1 == feats2


def test_indel_identity_iff_equal_when_lengths_match():
    for s1, s2 in _random_pairs(500, 10, seed=6):
        if len(s1) == len(s2):
            assert (fuzzy.indel_ratio(s1, s2) == 100) == (s1 == s2)
        assert fuzzy.indel_ratio(s1, s1) == 100


def test_token_set_dominates_intersection_comparison():
    # token_set >= token_sort is NOT universal; what the three-way max does
    # guarantee is dominance over the intersection-first joined forms
    from dupliq.textops import normalize_text

    for s1, s2 in _random_pairs(500, 14, seed=7):
        set1 = set(normalize_text(s1).split())
        set2 = set(normalize_text(s2).split())
        if not set1 or not set2:
            continue
        t0 = " ".join(sorted(set1 & set2))
        t1 = (t0 + " " + " ".join(sorted(set1 - set2))).strip()
        t2 = (t0 + " " + " ".join(sorted(set2 - set1))).strip()
        assert fuzzy.fuzzy_features(s1, s2).token_set_ratio >= fuzzy.indel_ratio(t1, t2)


def test_exact_half_rounds_up():
    # sorted joins "about can fuse gecubu how i in mudubis suko with" and
    # "about can hizoko how i suko vami" share 23 characters: 46 / 80 = 57.5
    q1 = "How can I gecubu with suko in fuse about mudubis?"
    q2 = "How can I hizoko suko about vami?"
    assert fuzzy.fuzzy_features(q1, q2).token_sort_ratio == 58
    assert token_sort_oracle(q1, q2) == 58
    # 23 common characters over 40 + 40 again, through the partial scan and
    # the token-set maximum
    s1, s2 = "a" * 23 + "b" * 17, "a" * 23 + "c" * 17
    assert fuzzy.partial_ratio(s1, s2) == partial_oracle(s1, s2) == 58
    feats = fuzzy.fuzzy_features(s1, s2)
    assert feats.partial_ratio == feats.qratio == 58
    assert feats.token_set_ratio == token_set_oracle(s1, s2) == 58


# Questions from a small pool of words, so tokens repeat, with case
# variants and punctuation that normalizing must remove.
_TOKENS = st.tuples(
    st.sampled_from(["how", "How", "can", "I", "learn", "python", "PYTHON", "in", "a", "zz", "e"]),
    st.sampled_from(["", "", "?", ",", "'s", "..."]),
).map("".join)


def _question(min_size, max_size):
    return st.lists(_TOKENS, min_size=min_size, max_size=max_size).map(" ".join)


def _length_ratio(q1, q2):
    n1, n2 = normalize_text(q1), normalize_text(q2)
    return max(len(n1), len(n2)) / max(1, min(len(n1), len(n2)))


def _assert_features_match_oracles(q1, q2):
    assert vars(fuzzy.fuzzy_features(q1, q2)) == fuzzy_features_oracle(q1, q2), (q1, q2)


@given(_question(0, 6), _question(1, 6))
def test_fuzzy_features_match_oracles(q1, q2):
    _assert_features_match_oracles(q1, q2)


@given(_question(1, 2), _question(4, 10))
def test_fuzzy_features_match_oracles_long_against_short(short, long):
    # the partial branch of the weighted ratio, 0.9 and 0.6 scales alike
    assume(_length_ratio(short, long) >= fuzzy.WRATIO_TRY_PARTIAL_RATIO)
    _assert_features_match_oracles(short, long)
    _assert_features_match_oracles(long, short)


# Alphabets for the window lanes: a few letters, a space, two code points
# outside the basic plane and a lone surrogate; a one-letter alphabet makes
# every window tie.
_ALPHABETS = ["a", "ab", "ab c", "ab\U0001F600\U00020000", "xy\U00020000 z\ud800"]


_LANE_EDGES = [0, 1, 7, 8, 15, 16, 63, 64, 65, 127, 128, 129]


@st.composite
def _needle_and_haystack(draw, lengths=_LANE_EDGES, alphabets=_ALPHABETS):
    """A needle of a length at an edge of the byte-aligned lanes, and a
    haystack at least as long, in either order.  A length of 7 mod 8 fills
    a lane up to its guard bit."""
    alphabet = st.sampled_from(draw(st.sampled_from(alphabets)))
    m = draw(st.sampled_from(lengths))
    # long needles get few windows: the oracle's table grows as m * m
    extra = draw(st.integers(0, 3 if m > 64 else 9 if m > 7 else 40))
    needle = draw(st.text(alphabet, min_size=m, max_size=m))
    haystack = draw(st.text(alphabet, min_size=m + extra, max_size=m + extra))
    return (needle, haystack) if draw(st.booleans()) else (haystack, needle)


@given(_needle_and_haystack())
def test_partial_ratio_kernel_matches_window_oracle(pair):
    assert fuzzy.partial_ratio(*pair) == partial_oracle(*pair), pair


@settings(max_examples=10)
@given(_needle_and_haystack(lengths=[129, 136, 143], alphabets=["ab\U0001F600\ud800"]))
def test_partial_ratio_needles_past_128_match_window_oracle(pair):
    # lanes of 17 and 18 bytes, code points outside the basic plane and a
    # lone surrogate in every alphabet
    assert fuzzy.partial_ratio(*pair) == partial_oracle(*pair), pair


def test_partial_ratio_kernel_edges():
    # the best window is the last one, or the first one
    assert fuzzy.partial_ratio("xyz", "aaaaaaaxyz") == 100
    assert fuzzy.partial_ratio("xyz", "xyzaaaaaaa") == 100
    # a needle as long as its haystack has one window: the plain ratio
    for m in (1, 63, 64, 65, 130):
        s1, s2 = "ab" * m, "ba" * m
        assert fuzzy.partial_ratio(s1[:m], s2[:m]) == fuzzy.indel_ratio(s1[:m], s2[:m])
    # 64 distinct characters, a bit each: every bit of the needle's width counts
    needle = "".join(chr(0x4E00 + i) for i in range(64))
    haystack = "." + needle[::-1] + needle[:63]
    # the best window is the reversal's last character and 63 in order
    assert fuzzy.partial_ratio(needle, haystack) == partial_oracle(needle, haystack) == 98
    assert fuzzy.partial_ratio("\U0001F600" * 64, "a" + "\U0001F600" * 64) == 100
    # the needle's last character, its top bit, matches nothing, then no character
    assert fuzzy.partial_ratio("b" * 63 + "c", "b" * 70) == partial_oracle("b" * 63 + "c", "b" * 70) == 98
    assert fuzzy.partial_ratio("a" * 64, "b" * 70) == 0
    # needles of 7 mod 8 characters fill their lanes up to the guard bit,
    # which takes the carry of every matching step
    for m in (7, 15, 63, 127):
        for a, b in [("a" * m, "a" * (m - 2) + "b" + "aaa"), ("a" * (m - 1) + "b", "a" * (m + 1) + "b")]:
            assert fuzzy.partial_ratio(a, b) == partial_oracle(a, b), (m, a, b)
    # a lone surrogate is a character like any other
    assert fuzzy.partial_ratio("\ud800a", "x\ud800\udc00a") == partial_oracle("\ud800a", "x\ud800\udc00a")


def test_public_functions_are_the_traced_scores():
    # the benchmark tracer wraps every public function of the module, so the
    # kernel and its helpers stay private
    import inspect

    public = {
        name
        for name, value in vars(fuzzy).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == fuzzy.__name__
    }
    assert public == {"lcs_length", "indel_ratio", "partial_ratio", "fuzzy_features"}


_LONG_TOKENS = st.sampled_from(
    ["how", "can", "learn", "python", "programming", "\U00020000x", "\U0001F600", "aaaa", "e"]
)


@given(
    st.lists(_LONG_TOKENS, min_size=1, max_size=20).map(" ".join),
    st.lists(_LONG_TOKENS, min_size=1, max_size=20).map(" ".join),
)
def test_fuzzy_features_match_oracles_long_and_astral(q1, q2):
    # raw questions often past 64 characters, with code points outside the
    # basic plane
    _assert_features_match_oracles(q1, q2)
