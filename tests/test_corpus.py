import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dupliq.corpus import (
    PairTable,
    QuestionPair,
    RowError,
    clean,
    corpus_stats,
    load_pairs,
    save_pairs,
    stratified_split,
)


def make_table(questions, labels):
    rows = tuple(
        QuestionPair(i, 2 * i + 1, 2 * i + 2, q1, q2, label)
        for i, ((q1, q2), label) in enumerate(zip(questions, labels))
    )
    return PairTable(rows)


HEADER = "id\tqid1\tqid2\tquestion1\tquestion2\tis_duplicate\n"


def test_load_basic(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text(
        HEADER
        + "0\t1\t2\tWhat is AI?\tWhat is artificial intelligence?\t1\n"
        + '1\t3\t4\t"Has a\ttab inside"\tsecond question here\t0\n'
    )
    table = load_pairs(path)
    assert len(table) == 2
    assert table[0].is_duplicate == 1
    assert table[1].question1 == "Has a\ttab inside"


def test_load_header_only(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text(HEADER)
    assert len(load_pairs(path)) == 0


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_pairs(tmp_path / "nope.tsv")


def test_load_bad_label(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(HEADER + "0\t1\t2\tquestion one\tquestion two\t2\n")
    with pytest.raises(RowError, match="line 2"):
        load_pairs(path)
    assert len(load_pairs(path, skip_bad_rows=True)) == 0


def test_load_wrong_field_count(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(HEADER + "0\t1\t2\tonly one question\t1\n")
    with pytest.raises(RowError, match="line 2"):
        load_pairs(path)


def test_load_faults_name_the_file(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(HEADER + "0\t1\t2\tonly one question\t1\n")
    with pytest.raises(RowError, match=f"^{path}: line 2: expected 6 fields, found 5$"):
        load_pairs(path)
    path.write_bytes((HEADER + "0\t1\t2\tq\xffone\tquestion two\t1\n").encode("latin-1"))
    with pytest.raises(ValueError, match=f"{path}: not UTF-8 text"):
        load_pairs(path)


def test_save_load_roundtrip(tmp_path):
    table = make_table(
        [("What is AI?", "what\tis \"AI\"?"), ("over six", "multi\nline q")],
        [1, 0],
    )
    path = tmp_path / "round.tsv"
    save_pairs(table, path)
    assert load_pairs(path).rows == table.rows


def test_clean_rule():
    table = make_table(
        [("How do I?", "What is it?"), ("?", "long enough"), ("sixsix", "sixsix")],
        [1, 0, 1],
    )
    cleaned = clean(table)
    assert [r.row_id for r in cleaned] == [0, 2]
    # boundary: both exactly 6 characters is kept
    assert clean(make_table([("abcdef", "abcdef")], [0]))[0].question1 == "abcdef"
    # idempotent
    assert clean(cleaned).rows == cleaned.rows


def test_stats_counts():
    table = make_table(
        [("abcdef", "abcdef"), ("ab", "a bit longer"), ("longest question", "x")],
        [1, 0, 0],
    )
    stats = corpus_stats(table)
    assert stats.total_pairs == 3
    assert stats.positives + stats.negatives == len(table)
    assert stats.positives == 1
    assert stats.short_q1 == 1
    assert stats.short_q2 == 1
    assert stats.max_len_q1 == 16
    assert stats.sum_len_q1 == 6 + 2 + 16
    assert stats.avg_len_q1 == stats.sum_len_q1 / 3
    assert stats.question_occurrence["abcdef"] == 2


def test_split_deterministic_partition():
    table = make_table(
        [(f"question {i} one", f"question {i} two") for i in range(10)],
        [0, 1] * 5,
    )
    train1, test1 = stratified_split(table, 0.2, seed=42)
    train2, test2 = stratified_split(table, 0.2, seed=42)
    assert [r.row_id for r in test1] == [r.row_id for r in test2]
    ids = sorted(r.row_id for r in train1) + sorted(r.row_id for r in test1)
    assert sorted(ids) == list(range(10))
    assert len(test1) == 2


def test_split_proportions_37_percent():
    labels = [1] * 37 + [0] * 63
    table = make_table(
        [(f"first question {i}", f"second question {i}") for i in range(100)], labels
    )
    for seed in range(10):
        train, test = stratified_split(table, 0.2, seed=seed)
        assert len(test) == 20
        positives = sum(r.is_duplicate for r in test)
        assert positives in (7, 8)


def test_split_proportion_bound():
    rng = np.random.default_rng(3)
    labels = (rng.random(1000) < 0.37).astype(int).tolist()
    table = make_table(
        [(f"first question {i}", f"second question {i}") for i in range(1000)], labels
    )
    train, test = stratified_split(table, 0.2, seed=1)
    base = sum(labels) / len(labels)
    got = sum(r.is_duplicate for r in test) / len(test)
    assert abs(got - base) <= max(0.005, 1.0 / len(test))


def test_split_errors():
    table = make_table([("question one", "question two")], [1])
    with pytest.raises(ValueError):
        stratified_split(table, 0.2, seed=0)
    table = make_table(
        [(f"q number {i} a", f"q number {i} b") for i in range(4)], [0, 0, 1, 1]
    )
    with pytest.raises(ValueError):
        stratified_split(table, 0.0, seed=0)
    with pytest.raises(ValueError):
        stratified_split(table, 1.0, seed=0)


# Question text with the characters the TSV quoting must carry: quotes,
# tabs, both newline conventions and code points outside the BMP.
_FIELD = st.lists(
    st.one_of(
        st.sampled_from(['"', '""', "\t", "\n", "\r\n", "\r", " ", "\U0001f600", "\U00020000"]),
        st.text(max_size=4),
    ),
    max_size=8,
).map("".join)
_PAIR = st.builds(
    QuestionPair,
    st.integers(0, 10**9),
    st.integers(0, 10**9),
    st.integers(0, 10**9),
    _FIELD,
    _FIELD,
    st.sampled_from([0, 1]),
)


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_PAIR, max_size=5))
def test_save_load_pairs_roundtrip_property(tmp_path, rows):
    path = tmp_path / "round.tsv"
    save_pairs(PairTable(tuple(rows)), path)
    assert load_pairs(path).rows == tuple(rows)
