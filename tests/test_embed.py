import gzip
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dupliq import embed
from dupliq.embed import (
    EmbeddingTable,
    load_glove_text,
    load_word2vec_binary,
    moments,
    pair_distances,
    question_bag,
    solve_transport,
    wmd,
)

from oracles import DISTANCE_ORACLES, moments_oracle, transport_oracle

# The spanning-tree transport oracle enumerates C(m*n, m+n-1) bases.
ORACLE_MAX_CELLS = 12


# ---------------------------------------------------------------- loaders

def test_glove_text_small(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("hello 1.0 2.0 0.5\nworld -1 0 3\n")
    table = load_glove_text(path)
    assert table.dim == 3
    assert len(table) == 2
    assert np.allclose(table.vocab["world"], [-1, 0, 3])


def test_glove_text_gzip(tmp_path):
    path = tmp_path / "vecs.txt.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("a 1 2\nb 3 4\n")
    assert load_glove_text(path).dim == 2


def test_glove_dim_mismatch(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("hello 1.0 2.0 0.5\nworld -1 3\n")
    with pytest.raises(ValueError, match="line 2"):
        load_glove_text(path)


def test_glove_non_numeric(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("hello 1.0 x 0.5\n")
    with pytest.raises(ValueError, match="line 1"):
        load_glove_text(path)


def _w2v_bytes(entries, dim, header_count=None, trailing_newline=True):
    count = len(entries) if header_count is None else header_count
    blob = f"{count} {dim}\n".encode()
    for word, vec in entries:
        blob += word.encode() + b" "
        blob += struct.pack(f"<{dim}f", *vec)
        if trailing_newline:
            blob += b"\n"
    return blob


def test_word2vec_roundtrip_bit_exact(tmp_path):
    vecs = [("alpha", [1.5, -2.25, 0.125]), ("beta", [3.0, 0.1, -7.5])]
    path = tmp_path / "vectors.bin"
    path.write_bytes(_w2v_bytes(vecs, dim=3))
    table = load_word2vec_binary(path)
    assert table.dim == 3
    for word, vec in vecs:
        expected = np.frombuffer(struct.pack("<3f", *vec), dtype="<f4").astype(float)
        assert np.array_equal(table.vocab[word], expected)


def test_word2vec_no_newlines(tmp_path):
    vecs = [("a", [1.0, 2.0]), ("b", [3.0, 4.0])]
    path = tmp_path / "vectors.bin"
    path.write_bytes(_w2v_bytes(vecs, dim=2, trailing_newline=False))
    table = load_word2vec_binary(path)
    assert np.allclose(table.vocab["b"], [3.0, 4.0])


def test_word2vec_gzip_and_header(tmp_path):
    vecs = [("a", [1.0, 2.0])]
    path = tmp_path / "vectors.bin.gz"
    path.write_bytes(gzip.compress(_w2v_bytes(vecs, dim=2)))
    table = load_word2vec_binary(path)
    assert (len(table.vocab), table.dim) == (1, 2)
    assert np.array_equal(table.vocab["a"], [1.0, 2.0])


@pytest.mark.parametrize("loader", [load_glove_text, load_word2vec_binary])
def test_damaged_gzip_stream_names_the_file(tmp_path, loader):
    packed = bytearray(gzip.compress(b"2 2\na " + bytes(8) + b"b " + bytes(8)))
    # the first deflate byte after the 10-byte header: block type 3 is reserved
    packed[10] = 0xFF
    path = tmp_path / "vectors.gz"
    path.write_bytes(bytes(packed))
    with pytest.raises(ValueError, match=f"{path}: damaged gzip stream"):
        loader(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-1e39"])
def test_glove_refuses_a_component_beyond_float32_naming_file_and_line(tmp_path, value):
    path = tmp_path / "vecs.txt"
    path.write_text(f"hello 1.0 2.0\nworld 0.5 {value}\n")
    with pytest.raises(ValueError, match=f"{path} line 2: .*NaN"):
        load_glove_text(path)


def test_word2vec_refuses_a_nan_component_naming_file_and_word(tmp_path):
    path = tmp_path / "vectors.bin"
    path.write_bytes(_w2v_bytes([("a", [1.0, 2.0]), ("b", [math.nan, 4.0])], dim=2))
    with pytest.raises(ValueError, match=f"{path}: word 'b': .*NaN"):
        load_word2vec_binary(path)


def test_glove_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_bytes(b"hello 1.0 2.0\nw\xffrld 0.5 0.5\n")
    with pytest.raises(ValueError, match=f"{path}: not UTF-8 text"):
        load_glove_text(path)


def test_word2vec_truncated(tmp_path):
    vecs = [("a", [1.0, 2.0]), ("b", [3.0, 4.0])]
    blob = _w2v_bytes(vecs, dim=2)
    path = tmp_path / "cut.bin"
    path.write_bytes(blob[:-6])  # cut mid-vector
    with pytest.raises(ValueError, match="truncated after 1"):
        load_word2vec_binary(path)


def test_word2vec_bad_header(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a header\n")
    with pytest.raises(ValueError, match="header"):
        load_word2vec_binary(path)


# ---------------------------------------------------------- question bags

def bag(words, table):
    return question_bag(" ".join(words), table)


def test_sentence_vector(tiny_table):
    b = question_bag("ant", tiny_table)
    assert b.words == ["ant"]
    assert b.weights.tolist() == [1.0]
    assert np.allclose(b.mean, [3.0, 4.0])

    # stop words and punctuation go; repeats weigh in the bag and the mean
    b = question_bag("The bee, an ant... and the ant?", tiny_table)
    assert b.words == ["ant", "bee"]
    assert np.allclose(b.weights, [2 / 3, 1 / 3])
    assert np.array_equal(b.vectors, np.stack([tiny_table.vocab["ant"], tiny_table.vocab["bee"]]))
    assert np.allclose(b.mean, (2 * np.array([3.0, 4.0]) + np.array([1.0, 0.0])) / 3)

    oov = question_bag("zzz yyy", tiny_table)
    assert oov.words == []
    assert oov.vectors.shape == (0, 2)
    assert oov.mean.shape == (2,) and np.all(oov.mean == 0.0)


def test_sentence_vector_case_fallback(tiny_table, word_table):
    b = question_bag("ANT Ant", tiny_table)
    assert b.words == ["ant"]
    assert b.weights.tolist() == [1.0]
    assert np.allclose(b.mean, [3.0, 4.0])
    # an exact key wins over the lowercased one
    assert question_bag("Python python", word_table).words == ["Python", "python"]
    assert question_bag("PYTHON", word_table).words == ["python"]


# ----------------------------------------------------------------- wmd

def test_wmd_identical_and_single(tiny_table):
    assert wmd(bag(["ant", "bee"], tiny_table), bag(["bee", "ant"], tiny_table)) == 0.0
    d = wmd(bag(["ant"], tiny_table), bag(["bee"], tiny_table))
    assert d == pytest.approx(np.linalg.norm([3.0 - 1.0, 4.0 - 0.0]), abs=1e-9)


def test_wmd_equal_proportions_skip_the_solver(tiny_table, monkeypatch):
    monkeypatch.setattr(embed, "solve_transport", lambda *a: pytest.fail("solver called"))
    assert wmd(bag(["ant", "bee"], tiny_table), bag(["bee", "ant", "ant", "bee"], tiny_table)) == 0.0


def test_wmd_empty_sentinel(tiny_table):
    ant = bag(["ant"], tiny_table)
    assert wmd(bag([], tiny_table), ant) == embed.WMD_EMPTY_SENTINEL
    assert wmd(bag(["zzz"], tiny_table), ant) == embed.WMD_EMPTY_SENTINEL
    assert wmd(ant, question_bag("the of and", tiny_table)) == embed.WMD_EMPTY_SENTINEL
    assert wmd(bag([], tiny_table), bag([], tiny_table), normalize_words=True) == embed.WMD_EMPTY_SENTINEL


def test_wmd_2x2_matches_enumeration(tiny_table):
    got = wmd(bag(["ant", "bee"], tiny_table), bag(["cat", "dog"], tiny_table))
    w = [0.5, 0.5]
    costs = [
        [np.linalg.norm(tiny_table.vocab[u] - tiny_table.vocab[v]) for v in ("cat", "dog")]
        for u in ("ant", "bee")
    ]
    assert got == pytest.approx(transport_oracle(w, w, costs), abs=1e-9)


def test_wmd_matches_oracle_up_to_4_words(tiny_table):
    rng = np.random.default_rng(8)
    words = list(tiny_table.vocab)
    for _ in range(40):
        t1 = list(rng.choice(words, size=rng.integers(1, 5)))
        t2 = list(rng.choice(words, size=rng.integers(1, 5)))
        got = wmd(bag(t1, tiny_table), bag(t2, tiny_table))
        w1, f1 = np.unique(t1, return_counts=True)
        w2, f2 = np.unique(t2, return_counts=True)
        costs = [
            [np.linalg.norm(tiny_table.vocab[u] - tiny_table.vocab[v]) for v in w2]
            for u in w1
        ]
        want = transport_oracle(f1 / f1.sum(), f2 / f2.sum(), costs)
        assert got == pytest.approx(want, abs=1e-9), (t1, t2)


def test_wmd_symmetry_and_norm_flag(tiny_table):
    rng = np.random.default_rng(9)
    words = list(tiny_table.vocab)
    for _ in range(20):
        b1 = bag(rng.choice(words, size=rng.integers(1, 4)), tiny_table)
        b2 = bag(rng.choice(words, size=rng.integers(1, 4)), tiny_table)
        assert wmd(b1, b2) == pytest.approx(wmd(b2, b1), abs=1e-9)
        assert wmd(b1, b2) >= 0.0
    # with unit-length word vectors the normalize flag changes nothing
    unit = EmbeddingTable(
        2, {w: v / np.linalg.norm(v) for w, v in tiny_table.vocab.items() if np.linalg.norm(v) > 0}
    )
    words_u = list(unit.vocab)
    for _ in range(10):
        b1 = bag(rng.choice(words_u, size=2), unit)
        b2 = bag(rng.choice(words_u, size=2), unit)
        assert wmd(b1, b2) == pytest.approx(wmd(b1, b2, normalize_words=True), abs=1e-9)
    # on the raw table it rescales every word to unit length first
    got = wmd(bag(["ant"], tiny_table), bag(["bee"], tiny_table), normalize_words=True)
    assert got == pytest.approx(np.linalg.norm([0.6 - 1.0, 0.8 - 0.0]), abs=1e-9)


def test_solve_transport_direct():
    # moving half the mass a unit distance costs half a unit
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    got = solve_transport(np.array([2, 0]), np.array([1, 1]), cost)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_solve_transport_rejects_bad_masses():
    cost = np.ones((2, 2))
    for c1, c2 in (([0, 0], [1, 1]), ([1, 1], [0, 0]), ([2, -1], [1, 1])):
        with pytest.raises(ValueError, match="nonnegative"):
            solve_transport(np.array(c1), np.array(c2), cost)
    # proportions are not counts: truncating them would give a wrong value
    with pytest.raises(ValueError, match="integer"):
        solve_transport(np.array([0.6, 1.4]), np.array([1, 1]), cost)


@st.composite
def transport_problems(draw, max_count=6, min_words=1):
    """Integer masses with positive totals (zero entries allowed) and
    nonnegative costs on at most ORACLE_MAX_CELLS cells."""
    m = draw(st.integers(min_words, 4))
    n = draw(st.integers(min_words, ORACLE_MAX_CELLS // m))
    side = lambda k: st.lists(st.integers(0, max_count), min_size=k, max_size=k).filter(any)
    c1 = np.array(draw(side(m)), dtype=np.int64)
    c2 = np.array(draw(side(n)), dtype=np.int64)
    cells = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)
    costs = np.array(draw(st.lists(cells, min_size=m * n, max_size=m * n))).reshape(m, n)
    return c1, c2, costs


def _oracle(c1, c2, costs):
    return transport_oracle(c1 / c1.sum(), c2 / c2.sum(), costs.tolist())


@given(transport_problems())
def test_solve_transport_matches_oracle(problem):
    c1, c2, costs = problem
    want = _oracle(c1, c2, costs)
    assert solve_transport(c1, c2, costs) == pytest.approx(want, rel=1e-9, abs=1e-9)
    if len(c1) == 1:
        assert want == pytest.approx(costs[0] @ (c2 / c2.sum()), rel=1e-9, abs=1e-9)


@given(transport_problems(max_count=3, min_words=2))
def test_solve_transport_linear_program_branch(problem):
    # the token totals are coprime, so lcm(N1, N2) = N1 * N2 exceeds the cap;
    # small counts keep N1 * N2 in the low thousands
    c1, c2, costs = problem
    c1[0] += embed.ASSIGNMENT_MAX_TOKENS
    while np.gcd(c1.sum(), c2.sum()) != 1:
        c2[-1] += 1
    assert math.lcm(int(c1.sum()), int(c2.sum())) > embed.ASSIGNMENT_MAX_TOKENS
    want = _oracle(c1, c2, costs)
    assert solve_transport(c1, c2, costs) == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_solve_transport_branches(monkeypatch):
    # each size runs the solver its docstring names
    calls = []
    monkeypatch.setattr(embed, "_transport_lp", lambda *a: calls.append("lp") or 0.0)
    monkeypatch.setattr(
        embed, "linear_sum_assignment", lambda a: calls.append("assign") or ([0], [0])
    )
    cost = np.ones((2, 2))
    solve_transport(np.array([1, 1]), np.array([1, 2]), cost)
    solve_transport(np.array([1, 128]), np.array([1, 2]), cost)
    assert calls == ["assign", "lp"]


QUESTION_WORDS = st.lists(st.sampled_from(["ant", "bee", "cat", "dog", "zzz"]), max_size=6)


# the fixture is read, never changed, so sharing it across examples is safe
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(QUESTION_WORDS, QUESTION_WORDS, st.booleans())
def test_wmd_symmetric(tiny_table, words1, words2, normalize):
    b1, b2 = bag(words1, tiny_table), bag(words2, tiny_table)
    assert wmd(b1, b2, normalize) == pytest.approx(wmd(b2, b1, normalize), rel=1e-12, abs=1e-12)


# ------------------------------------------------------------- distances

def distances_of(u, v) -> dict[str, float]:
    """``pair_distances`` of one pair of vectors, by metric name."""
    row = pair_distances(np.atleast_2d(u), np.atleast_2d(v))[0]
    return dict(zip(embed.DISTANCE_METRICS, row))


def test_distance_fixtures():
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    expect = {
        "cityblock": 2.0,
        "euclidean": np.sqrt(2.0),
        "minkowski3": 2.0 ** (1.0 / 3.0),
        "cosine": 1.0,
        "jaccard": 1.0,
        "canberra": 2.0,
        "braycurtis": 1.0,
    }
    assert set(expect) == set(embed.DISTANCE_METRICS)
    got, same = distances_of(u, v), distances_of(u, u)
    for metric, want in expect.items():
        assert got[metric] == pytest.approx(want, rel=1e-12)
        assert same[metric] == 0.0


def test_distance_degenerate_zero_vectors():
    # no RuntimeWarning either: pyproject turns one into a failure
    z = np.zeros(3)
    assert all(d == 0.0 for d in distances_of(z, z).values())
    assert distances_of(z, np.array([1.0, 0.0, 0.0]))["cosine"] == 1.0
    assert distances_of(np.array([0.0, 2.0, 0.0]), z)["cosine"] == 1.0


def test_distance_dimension_mismatch():
    assert pair_distances(np.zeros((0, 4)), np.zeros((0, 4))).shape == (0, 7)
    assert pair_distances(np.ones((1, 4)), np.zeros((1, 4))).shape == (1, 7)
    with pytest.raises(ValueError):
        pair_distances(np.zeros((1, 2)), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        pair_distances(np.zeros((2, 3)), np.zeros((1, 3)))
    with pytest.raises(ValueError):
        pair_distances(np.zeros(3), np.zeros(3))


def test_distances_match_formula_oracle():
    rng = np.random.default_rng(10)
    for dim in range(2, 8):
        for n in (0, 1, 50):
            U = rng.normal(size=(n, dim))
            V = rng.normal(size=(n, dim))
            holes = rng.random(n) < 0.2
            U[holes, rng.integers(0, dim)] = 0.0
            got = pair_distances(U, V)
            assert got.shape == (n, len(embed.DISTANCE_METRICS))
            assert np.allclose(pair_distances(V, U), got, rtol=1e-12, atol=1e-12)
            for i in range(n):
                for j, metric in enumerate(embed.DISTANCE_METRICS):
                    want = DISTANCE_ORACLES[metric](list(U[i]), list(V[i]))
                    assert got[i, j] == pytest.approx(want, rel=1e-12, abs=1e-12), metric


def test_metric_triangle_and_norm_inequalities():
    rng = np.random.default_rng(11)
    col = {m: j for j, m in enumerate(embed.DISTANCE_METRICS)}
    for dim in range(2, 6):
        U, V, W = rng.normal(size=(3, 50, dim))
        duw, duv, dvw = pair_distances(U, W), pair_distances(U, V), pair_distances(V, W)
        for metric in ("cityblock", "euclidean", "minkowski3"):
            j = col[metric]
            assert (duw[:, j] <= duv[:, j] + dvw[:, j] + 1e-9).all()
        assert (duv[:, col["euclidean"]] <= duv[:, col["cityblock"]] + 1e-12).all()
    # euclidean equals cityblock when only one component differs
    d = distances_of(np.array([1.0, 2.0, 3.0]), np.array([1.0, -0.5, 3.0]))
    assert d["euclidean"] == pytest.approx(d["cityblock"], rel=1e-12)


# --------------------------------------------------------------- moments

def test_moments_examples():
    skew, kurt = moments(np.array([[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    assert skew[0] == 0.0
    assert kurt[0] == pytest.approx(-1.5, abs=1e-12)
    assert (skew[1], kurt[1]) == (0.0, 0.0)
    skew, kurt = moments(np.array([[-1.0, 1.0]]))
    assert kurt[0] == pytest.approx(-2.0, abs=1e-12)
    # a constant row, zero or not, is imputed without a RuntimeWarning
    skew, kurt = moments(np.zeros((2, 5)))
    assert skew.tolist() == kurt.tolist() == [0.0, 0.0]


def test_moments_shapes():
    skew, kurt = moments(np.zeros((0, 4)))
    assert skew.shape == kurt.shape == (0,)
    with pytest.raises(ValueError):
        moments(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        moments(np.zeros(5))


def test_moments_match_oracle_and_permutation_invariant():
    rng = np.random.default_rng(12)
    for dim in range(2, 12):
        for n in (1, 10):
            X = rng.normal(size=(n, dim))
            skew, kurt = moments(X)
            pskew, pkurt = moments(rng.permuted(X, axis=1))
            for i in range(n):
                want = moments_oracle(list(X[i]))
                assert skew[i] == pytest.approx(want[0], rel=1e-10, abs=1e-12)
                assert kurt[i] == pytest.approx(want[1], rel=1e-10, abs=1e-12)
            assert np.allclose(pskew, skew, rtol=1e-9, atol=1e-12)
            assert np.allclose(pkurt, kurt, rtol=1e-9, atol=1e-12)
