import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dupliq import embed, featmat, fuzzy, textops
from dupliq._cpus import side_by_side
from dupliq.corpus import PairTable, QuestionPair
from dupliq.featmat import (
    DEFAULT_DROP_LIST,
    FEATURE_NAMES,
    FeatureMatrix,
    drop_features,
    extract_matrix,
    extract_row,
    load_matrix,
    save_matrix,
)

from conftest import usable_cpus
from oracles import DISTANCE_ORACLES, fuzzy_features_oracle, moments_oracle


def pair(q1, q2, label=1, row_id=0):
    return QuestionPair(row_id, 1, 2, q1, q2, label)


def test_feature_layout():
    assert len(FEATURE_NAMES) == 28
    assert len(set(FEATURE_NAMES)) == 28
    assert DEFAULT_DROP_LIST <= set(FEATURE_NAMES)
    assert len(DEFAULT_DROP_LIST) == 8


def test_identical_questions(word_table):
    row = extract_row(pair("how to learn python", "how to learn python"), word_table)
    assert row["len_diff"] == 0
    for name in (
        "qratio",
        "wratio",
        "partial_ratio",
        "token_set_ratio",
        "token_sort_ratio",
        "partial_token_set_ratio",
        "partial_token_sort_ratio",
    ):
        assert row[name] == 100
    assert row["wmd"] == 0.0
    assert row["cosine"] == 0.0


def test_all_out_of_vocabulary(word_table):
    row = extract_row(pair("zzz qqq www", "xxx yyy vvv"), word_table)
    assert row["wmd"] == embed.WMD_EMPTY_SENTINEL
    assert row["norm_wmd"] == embed.WMD_EMPTY_SENTINEL
    for name in (
        "cosine",
        "minkowski3",
        "cityblock",
        "euclidean",
        "jaccard",
        "canberra",
        "braycurtis",
        "skew_q1",
        "skew_q2",
        "kurt_q1",
        "kurt_q2",
    ):
        assert row[name] == 0.0


def test_extract_row_against_per_feature_oracle(word_table):
    q1 = "What is the best way to learn python fast?"
    q2 = "How can people learn the python language online?"
    row = extract_row(pair(q1, q2), word_table)

    basic = textops.basic_features(q1, q2)
    assert row["len_q1"] == basic.len_q1
    assert row["nchar_q2"] == basic.nchar_q2
    assert row["common_words"] == basic.common_words

    fz = fuzzy.fuzzy_features(q1, q2)
    for name, want in fuzzy_features_oracle(q1, q2).items():
        assert row[name] == getattr(fz, name) == want, name

    bag1 = embed.question_bag(q1, word_table)
    bag2 = embed.question_bag(q2, word_table)
    u1, u2 = bag1.mean, bag2.mean
    for metric, oracle in DISTANCE_ORACLES.items():
        assert row[metric] == pytest.approx(oracle(list(u1), list(u2)), rel=1e-12)
    skew1, kurt1 = moments_oracle(list(u1))
    assert row["skew_q1"] == pytest.approx(skew1, rel=1e-12)
    assert row["kurt_q1"] == pytest.approx(kurt1, rel=1e-12)

    assert row["wmd"] == embed.wmd(bag1, bag2)
    assert row["norm_wmd"] == embed.wmd(bag1, bag2, normalize_words=True)


def test_extract_row_deterministic(word_table):
    p = pair("learn python the best way", "best way to learn python")
    r1 = extract_row(p, word_table)
    r2 = extract_row(p, word_table)
    assert np.array_equal(r1.values, r2.values)


def test_extract_matrix_order(word_table):
    rows = [
        pair("how to learn python", "learn python how", 1, 0),
        pair("best online course", "best book to start", 0, 1),
        pair("what is the fastest language", "what language is fastest", 1, 2),
    ]
    m = extract_matrix(PairTable(tuple(rows)), word_table)
    assert m.column_names == list(FEATURE_NAMES)
    for i, p in enumerate(rows):
        assert np.array_equal(m.rows[i], extract_row(p, word_table).values)
    assert np.array_equal(m.labels, np.array([1, 0, 1]))


def test_only_tables_of_array_block_pairs_reach_the_fork_helper(word_table, monkeypatch):
    """A fork costs several times a one-pair table's whole time: a single
    row, and any table under ARRAY_BLOCK pairs, is computed in this process
    without even asking for the usable CPUs, which are two here."""
    calls = []

    def affinity(pid):
        calls.append("affinity")
        return {0, 1}

    def helper(*args):
        calls.append("helper")
        return side_by_side(*args)

    monkeypatch.setattr(os, "sched_getaffinity", affinity, raising=False)
    monkeypatch.setattr(featmat, "side_by_side", helper)
    p = pair("how to learn python", "learn python how")
    extract_row(p, word_table)
    small = extract_matrix(PairTable((p,) * (featmat.ARRAY_BLOCK - 1)), word_table)
    assert calls == []
    large = extract_matrix(PairTable((p,) * featmat.ARRAY_BLOCK), word_table)
    assert calls == ["helper", "affinity"]
    assert large.rows.tobytes() == np.vstack([small.rows, small.rows[:1]]).tobytes()


# a small pool of questions, so tables repeat questions and pair a question
# with itself; "zzz qqq" and stop words alone have no word in the table
POOL_WORDS = ["learn", "python", "Python", "code", "best", "way", "the", "to", "how", "zzz", "qqq"]
QUESTIONS = st.lists(
    st.lists(st.sampled_from(POOL_WORDS), min_size=1, max_size=6).map(" ".join),
    min_size=1,
    max_size=4,
)
# ARRAY_BLOCK for the property test: a table of BLOCK pairs or more is
# featurized in two processes when two CPUs are usable, and one of more
# than BLOCK pairs takes two blocks of distances
BLOCK = 4
SLOTS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)), max_size=2 * BLOCK
)


# the fixture is read, never changed, so sharing it across examples is safe
@pytest.mark.parametrize("cpus", [1, 2])
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(QUESTIONS, SLOTS)
@example(["zzz qqq"], [])
@example(["how to learn python"], [(0, 0, 1)])
@example(["the way", "zzz qqq", "learn code"], [(0, 1, 0), (1, 1, 1), (2, 0, 0)])
@example(["the way", "zzz qqq", "learn code"], [(0, 1, 0), (1, 1, 1), (2, 0, 0), (2, 1, 1)])
@example(["learn python", "the", "code code"], [(a % 3, (a + 1) % 3, a % 2) for a in range(2 * BLOCK)])
def test_extract_matrix_matches_per_pair_oracles(word_table, cpus, questions, slots):
    rows = tuple(
        pair(questions[a % len(questions)], questions[b % len(questions)], label, i)
        for i, (a, b, label) in enumerate(slots)
    )
    with mock.patch.object(featmat, "ARRAY_BLOCK", BLOCK):
        with usable_cpus(cpus):
            m = extract_matrix(PairTable(rows), word_table)
        with usable_cpus(1):
            assert m.rows.tobytes() == extract_matrix(PairTable(rows), word_table).rows.tobytes()
    assert m.rows.shape == (len(rows), len(FEATURE_NAMES))
    assert m.labels.tolist() == [p.is_duplicate for p in rows]
    col = {name: j for j, name in enumerate(FEATURE_NAMES)}
    for p, got in zip(rows, m.rows):
        q1, q2 = p.question1, p.question2
        assert got.tobytes() == extract_row(p, word_table).values.tobytes()
        basic = textops.basic_features(q1, q2)
        assert got[: col["qratio"]].tolist() == [
            basic.len_q1,
            basic.len_q2,
            basic.len_diff,
            basic.nchar_q1,
            basic.nchar_q2,
            basic.nwords_q1,
            basic.nwords_q2,
            basic.common_words,
        ]
        for name, want in fuzzy_features_oracle(q1, q2).items():
            assert got[col[name]] == want, name
        bag1 = embed.question_bag(q1, word_table)
        bag2 = embed.question_bag(q2, word_table)
        assert got[col["wmd"]] == embed.wmd(bag1, bag2)
        assert got[col["norm_wmd"]] == embed.wmd(bag1, bag2, normalize_words=True)
        u1, u2 = list(bag1.mean), list(bag2.mean)
        for metric, oracle in DISTANCE_ORACLES.items():
            assert got[col[metric]] == pytest.approx(oracle(u1, u2), rel=1e-12, abs=1e-12)
        for suffix, u in (("q1", u1), ("q2", u2)):
            skew, kurt = moments_oracle(u)
            assert got[col[f"skew_{suffix}"]] == pytest.approx(skew, rel=1e-9, abs=1e-12)
            assert got[col[f"kurt_{suffix}"]] == pytest.approx(kurt, rel=1e-9, abs=1e-12)


def test_drop_features(word_table):
    table = PairTable((pair("how to learn python", "learn python how"),))
    m = extract_matrix(table, word_table)
    dropped = drop_features(m, DEFAULT_DROP_LIST)
    assert len(dropped.column_names) == 20
    assert "wratio" not in dropped.column_names
    # order of survivors preserved
    kept = [n for n in FEATURE_NAMES if n not in DEFAULT_DROP_LIST]
    assert dropped.column_names == kept

    assert drop_features(m, set()).column_names == m.column_names
    with pytest.raises(ValueError, match="no_such"):
        drop_features(m, {"no_such"})


def test_drop_features_composes(word_table):
    table = PairTable((pair("how to learn python", "learn python how"),))
    m = extract_matrix(table, word_table)
    d1 = {"wratio", "jaccard"}
    d2 = {"len_diff"}
    once = drop_features(m, d1 | d2)
    twice = drop_features(drop_features(m, d1), d2)
    assert once.column_names == twice.column_names
    assert np.array_equal(once.rows, twice.rows)


def test_save_load_roundtrip(tmp_path, word_table):
    table = PairTable(
        (
            pair("how to learn python", "learn python how", 1, 0),
            pair("best online course", "best book to start", 0, 1),
        )
    )
    m = extract_matrix(table, word_table)
    path = tmp_path / "features.csv"
    save_matrix(m, path)
    loaded = load_matrix(path)
    assert loaded.column_names == m.column_names
    assert np.array_equal(loaded.rows, m.rows)  # exact float round-trip
    assert np.array_equal(loaded.labels, m.labels)


def test_save_empty_matrix(tmp_path):
    m = FeatureMatrix(list(FEATURE_NAMES), np.empty((0, 28)), np.empty(0, dtype=int))
    path = tmp_path / "empty.csv"
    save_matrix(m, path)
    assert path.read_text().count("\n") == 1
    loaded = load_matrix(path)
    assert len(loaded) == 0


def test_load_matrix_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(ValueError, match="is_duplicate"):
        load_matrix(path)
    path.write_text("a,is_duplicate\nabc,1\n")
    with pytest.raises(ValueError, match="row 0"):
        load_matrix(path)


def test_load_matrix_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"a,is_duplicate\n1.0,1\n\xff,0\n")
    with pytest.raises(ValueError, match=f"{path}: not UTF-8 text"):
        load_matrix(path)
