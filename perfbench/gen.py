"""Seeded synthetic inputs: Quora-shaped question pairs and embedding files.

Everything here is a pure function of the seed and the size arguments, so
the same seed always gives byte-identical files.  The program under test
only ever sees the files written by :func:`write_inputs`:

* ``pairs.tsv`` -- the question-pair TSV (header, quoted fields);
* ``vectors.bin`` -- a 300-d word2vec binary file (cased words);
* ``glove.txt`` -- the same vectors as GloVe text (lowercased words).

Make-up of the text:

* a vocabulary of synthetic content words grouped into topics, each word
  paired with one synonym whose vector lies close to its own;
* questions are a question-word opener, interleaved stop words and 1-12
  content words drawn mostly from one topic, ending in ``?``;
* duplicates are paraphrases (synonym substitution, dropped words,
  reordered neighbours, another opener); negatives share the topic (another
  question of the topic, or a paraphrase with a content word swapped for an
  unrelated one), and a few labels are flipped, so no classifier can be
  perfect;
* some content words are missing from both embedding files, and a few
  questions have no in-vocabulary content word at all, so out-of-vocabulary
  handling and the empty-bag transport sentinel run;
* with ``reuse``, a few rows carry a question shorter than six characters,
  which ``corpus.clean`` drops.

``reuse=True`` draws questions from a shared pool with skewed popularity,
so questions recur across pairs; ``reuse=False`` makes every question text
unique and adds long-against-short pairs.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

DIM = 300
N_TOPICS = 8
WORDS_PER_TOPIC = 48  # 24 synonym pairs per topic
N_GENERAL = 900  # content words not tied to a topic
OOV_SHARE = 0.08
CAPITALIZED_SHARE = 0.06
# Quora Question Pairs (Kaggle train.csv): 149,263 duplicates in 404,290 pairs
DUPLICATE_RATE = 0.37
LABEL_NOISE = 0.05
SHORT_ROW_SHARE = 0.01  # only with reuse: the scored pairs are not cleaned
SHORT_QUESTION = "Why?"
OOV_QUESTION_SHARE = 0.01
# score_fresh only: not a Quora figure but a stress setting, so that
# partial_ratio window scans over long questions weigh in the latency
LONG_SHORT_SHARE = 0.3
# reuse: a pool of POOL_PER_PAIR popular questions per pair, drawn with Zipf
# weights of exponent POOL_SKEW, each with a few recurring variants.  These
# two were tuned to give 1.50 question slots per distinct question at 800
# pairs, the ratio of Quora Question Pairs (404,290 pairs, so 808,580
# slots, over 537,933 distinct questions).
POOL_PER_PAIR = 1.25
POOL_SKEW = 0.7
VARIANTS_PER_QUESTION = 3
# share of duplicates drawn from duplicate-prone topics (and of
# non-duplicates from the other topics)
TOPIC_BIAS = 0.95
# share of questions naming their topic (its first word), as real questions
# name the language, exam or product they are about
TOPIC_NAME_SHARE = 0.8
# share of questions of duplicate-prone topics asking for "the best" way or
# thing, the kind of question that is asked again and again
BEST_OPENER_SHARE = 0.95

OPENERS = [
    ["What", "is", "the", "best", "way", "to"],
    ["How", "do", "I"],
    ["How", "can", "I"],
    ["Why", "do", "we"],
    ["What", "are", "the"],
    ["Which", "is", "the", "best"],
    ["Is", "it", "possible", "to"],
    ["Should", "I"],
    ["Where", "can", "I", "find"],
    ["What", "should", "I", "know", "about"],
]
# openers that read as the same question; a paraphrase may swap within a group
OPENER_GROUPS = [[0, 5], [1, 2], [3], [4, 9], [6, 7], [8]]
OTHER_OPENERS = [i for i in range(len(OPENERS)) if i not in OPENER_GROUPS[0]]
LINKS = ["of", "in", "for", "and", "the", "with", "on", "about", "a", "to"]
LONG_LEADS = [
    "I", "have", "been", "trying", "this", "for", "a", "long", "time", "and",
    "I", "still", "do", "not", "understand", "it",
]

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


class Vocabulary:
    """Content words, their topics, synonyms and embedding vectors."""

    def __init__(self, rng: np.random.Generator):
        n_topic_words = N_TOPICS * WORDS_PER_TOPIC
        n_words = n_topic_words + N_GENERAL
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < n_words:
            n_syl = int(rng.integers(2, 4))
            w = "".join(
                _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
                for _ in range(n_syl)
            )
            if rng.random() < 0.3:
                w += _CONSONANTS[rng.integers(len(_CONSONANTS))]
            if w not in seen:
                seen.add(w)
                words.append(w)
        capital = rng.random(n_words) < CAPITALIZED_SHARE
        self.words = [w.capitalize() if c else w for w, c in zip(words, capital)]
        self.topic_words = np.arange(n_topic_words).reshape(N_TOPICS, WORDS_PER_TOPIC)
        self.general = np.arange(n_topic_words, n_words)
        # words 2j and 2j+1 are synonyms
        self.synonym = np.arange(n_words) ^ 1
        if N_GENERAL % 2:
            self.synonym[-1] = n_words - 1
        self.in_vocab = rng.random(n_words) >= OOV_SHARE
        centroids = rng.normal(size=(N_TOPICS + 1, DIM))
        topic_of = np.full(n_words, N_TOPICS)
        topic_of[:n_topic_words] = np.repeat(np.arange(N_TOPICS), WORDS_PER_TOPIC)
        base = 0.5 * centroids[topic_of] + rng.normal(size=(n_words, DIM))
        base[1::2] = base[0::2][: len(base[1::2])]  # synonyms share a base
        self.vectors = (base + 0.35 * rng.normal(size=(n_words, DIM))) * 0.1
        zipf = 1.0 / np.arange(1, len(self.general) + 1) ** 0.9
        self.general_p = zipf / zipf.sum()

    def content(self, rng, topic: int, n: int) -> list[int]:
        out = []
        for _ in range(n):
            if rng.random() < 0.7:
                out.append(int(self.topic_words[topic, rng.integers(WORDS_PER_TOPIC)]))
            else:
                out.append(int(rng.choice(self.general, p=self.general_p)))
        return out


def _render(q: "_Question", vocab: Vocabulary, rng) -> str:
    tokens = list(LONG_LEADS) + ["but"] if q.lead else []
    tokens += OPENERS[q.opener]
    for i, w in enumerate(q.content):
        if i and rng.random() < 0.3:
            tokens.append(LINKS[rng.integers(len(LINKS))])
        tokens.append(vocab.words[w])
    return " ".join(tokens) + "?"


class _Question:
    """A question before rendering: opener, topic and content word ids."""

    def __init__(self, opener, topic, content, lead=False):
        self.opener, self.topic, self.content, self.lead = opener, topic, content, lead


class _Lengths:
    """Content-word counts in a fixed order, so that question lengths, and
    the work they cost, do not change with the seed.  Short questions cycle
    through 64 quantiles of 1 + Poisson(3.2) capped at 12, long ones through
    14..29 words."""

    def __init__(self):
        k, p = 0, math.exp(-3.2)
        total = p
        self.short = []
        for j in range(64):
            while total < (j + 0.5) / 64:
                k += 1
                p *= 3.2 / k
                total += p
            self.short.append(min(12, 1 + k))
        self.long = list(range(14, 30))
        self.made = {False: 0, True: 0}

    def next(self, long: bool) -> int:
        seq = self.long if long else self.short
        k = self.made[long]
        self.made[long] += 1
        return seq[(k * 37) % len(seq)]  # 37 is prime to both lengths


def _topic_for(rng, label: int) -> int:
    """Even topics draw duplicates more often than odd ones, as some
    subjects attract repeated questions; this is the signal that lets the
    TF-IDF classifiers beat the majority rate."""
    prone = rng.random() < (TOPIC_BIAS if label else 1.0 - TOPIC_BIAS)
    return 2 * int(rng.integers(N_TOPICS // 2)) + (0 if prone else 1)


def _new_question(rng, vocab, topic, lengths, long=False, oov_only=False) -> _Question:
    if oov_only:
        oov = np.flatnonzero(~vocab.in_vocab)
        content = [int(w) for w in rng.choice(oov, size=int(rng.integers(1, 3)))]
    else:
        content = vocab.content(rng, topic, lengths.next(long))
        if rng.random() < TOPIC_NAME_SHARE:
            content.insert(int(rng.integers(len(content) + 1)), int(vocab.topic_words[topic, 0]))
    if topic % 2 == 0 and rng.random() < BEST_OPENER_SHARE:
        opener = int(rng.choice(OPENER_GROUPS[0]))
    else:
        opener = int(rng.choice(OTHER_OPENERS))
    return _Question(opener, topic, content, lead=long)


def _paraphrase(rng, q: _Question, vocab) -> _Question:
    content = [int(vocab.synonym[w]) if rng.random() < 0.35 else w for w in q.content]
    content = [w for w in content if len(content) <= 2 or rng.random() >= 0.15] or content[:1]
    if len(content) > 1 and rng.random() < 0.4:
        i = int(rng.integers(len(content) - 1))
        content[i], content[i + 1] = content[i + 1], content[i]
    opener = q.opener
    if rng.random() < 0.5:
        group = next(g for g in OPENER_GROUPS if q.opener in g)
        opener = int(group[rng.integers(len(group))])
    return _Question(opener, q.topic, content, q.lead)


def _near_miss(rng, q: _Question, vocab) -> _Question:
    p = _paraphrase(rng, q, vocab)
    content = list(p.content)
    for _ in range(min(2, len(content))):
        i = int(rng.integers(len(content)))
        content[i] = int(vocab.topic_words[q.topic, rng.integers(WORDS_PER_TOPIC)])
    return _Question(p.opener, p.topic, content, p.lead)


def _summary(rng, q: _Question) -> _Question:
    """A short question about the same thing as a long one."""
    k = min(len(q.content), int(rng.integers(1, 3)))
    picks = sorted(rng.choice(len(q.content), size=k, replace=False))
    return _Question(int(rng.integers(len(OPENERS))), q.topic, [q.content[i] for i in picks])


class _PoolEntry:
    """A popular question with the few paraphrases and near misses that
    recur with it, each rendered once so that its text repeats exactly."""

    def __init__(self, question: _Question, vocab, rng):
        self.question = question
        self.text = _render(question, vocab, rng)
        self.variants: dict[str, list[str]] = {"paraphrase": [], "near_miss": []}

    def variant(self, kind: str, vocab, rng) -> str:
        made = self.variants[kind]
        if len(made) < VARIANTS_PER_QUESTION:
            make = _paraphrase if kind == "paraphrase" else _near_miss
            made.append(_render(make(rng, self.question, vocab), vocab, rng))
            return made[-1]
        return made[int(rng.integers(len(made)))]


def _reuse_pair(rng, vocab, pool, weights, label) -> tuple[str, str]:
    entry = pool[int(rng.choice(len(pool), p=weights[label]))]
    if label:
        return entry.text, entry.variant("paraphrase", vocab, rng)
    if rng.random() < 0.5:
        return entry.text, entry.variant("near_miss", vocab, rng)
    return entry.text, pool[int(rng.choice(len(pool), p=weights[label]))].text


def _fresh_pair(rng, vocab, lengths, label) -> tuple[str, str]:
    if rng.random() < LONG_SHORT_SHARE:
        q1 = _new_question(rng, vocab, _topic_for(rng, label), lengths, long=True)
        other = _new_question(rng, vocab, q1.topic, lengths, long=True)
        q2 = _summary(rng, q1 if label else other)
        if rng.random() < 0.5:
            q1, q2 = q2, q1
    else:
        q1 = _new_question(
            rng, vocab, _topic_for(rng, label), lengths, oov_only=rng.random() < OOV_QUESTION_SHARE
        )
        if label:
            q2 = _paraphrase(rng, q1, vocab)
        elif rng.random() < 0.5:
            q2 = _near_miss(rng, q1, vocab)
        else:
            q2 = _new_question(rng, vocab, q1.topic, lengths)
            half = len(q1.content) // 2
            q2.content[:half] = q1.content[:half]
    return _render(q1, vocab, rng), _render(q2, vocab, rng)


def make_pairs(seed: int, n_pairs: int, reuse: bool):
    """Rows ``(q1, q2, label)``: deterministic in ``(seed, n_pairs, reuse)``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_pairs, int(reuse)]))
    vocab = Vocabulary(np.random.default_rng(seed))
    n_pos = int(round(DUPLICATE_RATE * n_pairs))
    labels = np.zeros(n_pairs, dtype=np.int64)
    labels[rng.choice(n_pairs, size=n_pos, replace=False)] = 1
    lengths = _Lengths()
    if reuse:
        n_pool = max(2, int(n_pairs * POOL_PER_PAIR))
        pool = [
            _PoolEntry(
                _new_question(
                    rng,
                    vocab,
                    int(rng.integers(N_TOPICS)),
                    lengths,
                    oov_only=rng.random() < OOV_QUESTION_SHARE,
                ),
                vocab,
                rng,
            )
            for _ in range(n_pool)
        ]
        zipf = 1.0 / np.arange(1, n_pool + 1) ** POOL_SKEW
        prone = np.array([e.question.topic % 2 == 0 for e in pool])
        bias = TOPIC_BIAS / (1.0 - TOPIC_BIAS)
        weights = []
        for label in (0, 1):
            w = zipf * np.where(prone == bool(label), bias, 1.0)
            weights.append(w / w.sum())

    rows = []
    seen: set[str] = set()
    for label in labels:
        while True:
            if reuse:
                t1, t2 = _reuse_pair(rng, vocab, pool, weights, label)
            else:
                t1, t2 = _fresh_pair(rng, vocab, lengths, label)
            # a pair is asked once; with reuse only its questions recur
            if t1 != t2 and (t1, t2) not in seen and (reuse or not ({t1, t2} & seen)):
                break
        seen.update((t1, t2, (t1, t2)))
        rows.append((t1, t2, int(label) ^ int(rng.random() < LABEL_NOISE)))
    if reuse:
        for i in rng.choice(n_pairs, size=n_short_rows(n_pairs), replace=False):
            rows[i] = (rows[i][0], SHORT_QUESTION, rows[i][2])
    return rows, vocab


def n_short_rows(n_pairs: int) -> int:
    """Rows of a ``reuse`` pair set whose second question ``clean`` drops."""
    return int(round(SHORT_ROW_SHARE * n_pairs))


def write_pairs(rows, path: Path) -> None:
    qid: dict[str, int] = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", quotechar='"')
        writer.writerow(["id", "qid1", "qid2", "question1", "question2", "is_duplicate"])
        for i, (t1, t2, y) in enumerate(rows):
            a = qid.setdefault(t1, len(qid) + 1)
            b = qid.setdefault(t2, len(qid) + 1)
            writer.writerow([i, a, b, t1, t2, y])


def write_word2vec(vocab: Vocabulary, path: Path) -> None:
    keep = np.flatnonzero(vocab.in_vocab)
    with open(path, "wb") as fh:
        fh.write(f"{len(keep)} {DIM}\n".encode())
        for i in keep:
            fh.write(vocab.words[i].encode() + b" ")
            fh.write(struct.pack(f"<{DIM}f", *vocab.vectors[i]))
            fh.write(b"\n")


def write_glove(vocab: Vocabulary, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in np.flatnonzero(vocab.in_vocab):
            values = " ".join(f"{v:.6f}" for v in vocab.vectors[i])
            fh.write(f"{vocab.words[i].lower()} {values}\n")


def input_stats(rows, vocab: Vocabulary) -> dict:
    """Measured make-up of a generated pair set, for the README."""
    in_vocab = {w.lower() for w, ok in zip(vocab.words, vocab.in_vocab) if ok}
    known = {w.lower() for w in vocab.words}
    slots = [t for t1, t2, _ in rows for t in (t1, t2)]
    content = [
        tok.rstrip("?").lower() for t in slots for tok in t.split() if tok.rstrip("?").lower() in known
    ]
    lengths = np.array([len(t.split()) for t in slots])
    return {
        "pairs": len(rows),
        "duplicate_rate": float(np.mean([y for _, _, y in rows])),
        "slots_per_unique_question": len(slots) / len(set(slots)),
        "content_oov_share": float(np.mean([w not in in_vocab for w in content])),
        "words_p10_p50_p90_max": [int(v) for v in np.percentile(lengths, [10, 50, 90])] + [int(lengths.max())],
    }


def write_inputs(directory: Path, seed: int, n_pairs: int, reuse: bool) -> dict:
    """Write the three input files into ``directory``; return their make-up."""
    directory.mkdir(parents=True, exist_ok=True)
    rows, vocab = make_pairs(seed, n_pairs, reuse)
    write_pairs(rows, directory / "pairs.tsv")
    write_word2vec(vocab, directory / "vectors.bin")
    write_glove(vocab, directory / "glove.txt")
    stats = input_stats(rows, vocab)
    (directory / "inputs.json").write_text(json.dumps(stats, indent=1))
    return stats
