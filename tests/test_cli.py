import argparse
import csv
import gzip
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dupliq.cli import main
from dupliq.featmat import ARRAY_BLOCK

WORDS = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
    "oscar", "papa", "quebec", "romeo", "sierra", "tango",
]


def write_corpus(path, n=80, seed=0):
    """Synthetic pairs: duplicates share shuffled words, negatives do not."""
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t")
        writer.writerow(["id", "qid1", "qid2", "question1", "question2", "is_duplicate"])
        for i in range(n):
            label = int(rng.random() < 0.5)
            k = int(rng.integers(4, 8))
            words1 = list(rng.choice(WORDS, size=k, replace=False))
            if label:
                words2 = list(rng.permutation(words1))
            else:
                rest = [w for w in WORDS if w not in words1]
                words2 = list(rng.choice(rest, size=min(k, len(rest)), replace=False))
            writer.writerow(
                [i, 2 * i + 1, 2 * i + 2, " ".join(words1) + "?", " ".join(words2) + "?", label]
            )


def write_glove(path, dim=6, seed=1):
    rng = np.random.default_rng(seed)
    with open(path, "w") as fh:
        for w in WORDS:
            vec = " ".join(f"{v:.5f}" for v in rng.normal(size=dim))
            fh.write(f"{w} {vec}\n")


@pytest.fixture
def workspace(tmp_path):
    tsv = tmp_path / "pairs.tsv"
    glove = tmp_path / "vectors.txt"
    write_corpus(tsv)
    write_glove(glove)
    return tmp_path, tsv, glove


def run(args):
    return main([str(a) for a in args])


def test_stats_and_report(workspace, capsys):
    tmp, tsv, _ = workspace
    report = tmp / "stats.json"
    assert run(["stats", tsv, "--report", report]) == 0
    out = capsys.readouterr().out
    assert "total pairs" in out
    doc = json.loads(report.read_text())
    assert doc["results"]["total_pairs"] == 80
    assert doc["command"] == "stats"
    assert "version" in doc


def test_clean_and_split(workspace):
    tmp, tsv, _ = workspace
    cleaned = tmp / "clean.tsv"
    assert run(["clean", tsv, "-o", cleaned, "--report", tmp / "c.json"]) == 0
    assert run([
        "split", cleaned, "--test", "0.25", "--seed", "3",
        "-o-train", tmp / "train.tsv", "-o-test", tmp / "test.tsv",
        "--report", tmp / "s.json",
    ]) == 0
    doc = json.loads((tmp / "s.json").read_text())
    assert doc["results"]["train_rows"] + doc["results"]["test_rows"] == 80


def test_missing_file_exit_code_2(tmp_path, capsys):
    assert run(["stats", tmp_path / "nope.tsv", "--report", tmp_path / "r.json"]) == 2


def test_bad_row_exit_code_1(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text(
        "id\tqid1\tqid2\tquestion1\tquestion2\tis_duplicate\n"
        "0\t1\t2\tfirst question\tsecond question\t2\n"
    )
    assert run(["stats", bad, "--report", tmp_path / "r.json"]) == 1
    assert "line 2" in capsys.readouterr().err


def test_unknown_flag_exit_code_1(workspace, capsys):
    tmp, tsv, _ = workspace
    assert run(["stats", tsv, "--bogus"]) == 1


def test_featurize_requires_embeddings(workspace, capsys):
    tmp, tsv, _ = workspace
    assert run(["featurize", tsv, "-o", tmp / "f.csv", "--report", tmp / "r.json"]) == 1
    assert "--glove or --w2v" in capsys.readouterr().err


def test_featurize_refuses_both_embedding_files(workspace, capsys):
    tmp, tsv, glove = workspace
    argv = ["featurize", tsv, "--glove", glove, "--w2v", glove, "-o", tmp / "f.csv", "--report", tmp / "r.json"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "--glove or --w2v, not both" in err and "Traceback" not in err
    assert not (tmp / "f.csv").exists()


def test_train_refuses_both_feature_inputs(workspace, capsys):
    # one from the command line, the other a config file's default: neither
    # is dropped in silence
    tmp, tsv, glove = workspace
    features, vectors, config = tmp / "features.csv", tmp / "vectors.npz", tmp / "config.json"
    assert run(["featurize", tsv, "--glove", glove, "-o", features, "--report", tmp / "f.json"]) == 0
    assert run(["tfidf-fit", tsv, "--analyzer", "word", "-o", tmp / "tfidf.json", "--report", tmp / "tf.json"]) == 0
    assert run(["tfidf-featurize", tsv, "--model", tmp / "tfidf.json", "-o", vectors, "--report", tmp / "tv.json"]) == 0
    config.write_text(json.dumps({"config_version": 1, "defaults": {"sparse": str(vectors)}}))
    capsys.readouterr()
    argv = ["train", "--model", "decision_tree", "--features", features, "-o", tmp / "m.json", "--config", config]
    assert run([*argv, "--report", tmp / "t.json"]) == 1
    err = capsys.readouterr().err
    assert "--features CSV or --sparse NPZ, not both" in err and "Traceback" not in err
    assert not (tmp / "m.json").exists()


def test_full_dense_pipeline(workspace, capsys):
    tmp, tsv, glove = workspace
    features = tmp / "features.csv"
    assert run([
        "featurize", tsv, "--glove", glove, "-o", features, "--report", tmp / "f.json",
    ]) == 0
    doc = json.loads((tmp / "f.json").read_text())
    assert len(doc["results"]["columns"]) == 28

    dropped = tmp / "features20.csv"
    assert run([
        "featurize", tsv, "--glove", glove, "-o", dropped,
        "--drop-paper-eight", "--report", tmp / "f20.json",
    ]) == 0
    doc20 = json.loads((tmp / "f20.json").read_text())
    assert len(doc20["results"]["columns"]) == 20

    model = tmp / "xgb.json"
    assert run([
        "train", "--model", "xgb", "--features", features,
        "--param", "n_estimators=30", "-o", model, "--report", tmp / "t.json",
    ]) == 0
    assert run([
        "eval", "--model", model, "--features", features, "--report", tmp / "e.json",
    ]) == 0
    metrics = json.loads((tmp / "e.json").read_text())["results"]["metrics"]
    assert metrics["accuracy"] >= 0.9  # separable synthetic corpus

    assert run([
        "importance", "--model", model, "--features", features,
        "--report", tmp / "i.json",
    ]) == 0
    ranked = json.loads((tmp / "i.json").read_text())["results"]["ranked"]
    assert len(ranked) == 28
    top = [name for name, _ in ranked[:6]]
    assert set(top) & {"common_words", "token_set_ratio", "token_sort_ratio",
                       "qratio", "wratio", "wmd", "norm_wmd", "cosine"}


def test_knn_model_roundtrip(workspace):
    tmp, tsv, glove = workspace
    features = tmp / "features.csv"
    run(["featurize", tsv, "--glove", glove, "-o", features, "--report", tmp / "f.json"])
    model = tmp / "knn.json"
    assert run([
        "train", "--model", "knn", "--features", features, "-o", model,
        "--report", tmp / "t.json",
    ]) == 0
    assert run([
        "eval", "--model", model, "--features", features, "--report", tmp / "e.json",
    ]) == 0


def test_knn_model_outlives_its_training_file(workspace, monkeypatch):
    """A knn saved by ``train``, dense or cosine, holds its training rows: it
    loads and predicts what the model trained in memory predicts after its
    training file is moved, rewritten and then deleted."""
    from dupliq import featmat, learn, sparse_io

    tmp, tsv, glove = workspace
    monkeypatch.chdir(tmp)  # reports without --report land in the working directory
    assert run(["featurize", tsv, "--glove", glove, "-o", "features.csv"]) == 0
    assert run(["tfidf-fit", tsv, "--analyzer", "word", "-o", "tfidf.json"]) == 0
    assert run(["tfidf-featurize", tsv, "--model", "tfidf.json", "-o", "vectors.npz"]) == 0
    dense = featmat.load_matrix("features.csv")
    sparse, labels, _names = sparse_io.load_sparse_features("vectors.npz")
    for flag, data, X, y in (
        ("--features", tmp / "features.csv", dense.rows, dense.labels),
        ("--sparse", tmp / "vectors.npz", sparse, labels),
    ):
        assert run(["train", "--model", "knn", flag, data, "-o", "knn.json"]) == 0
        want = learn.train(learn.ClassifierSpec("knn", {"seed": 0}), X, y).predict_proba(X)
        blob = data.read_bytes()
        moved = data.rename(tmp / f"moved-{data.name}")
        assert np.array_equal(learn.load_model("knn.json").predict_proba(X), want)
        data.write_bytes(blob[: len(blob) // 2])
        assert np.array_equal(learn.load_model("knn.json").predict_proba(X), want)
        data.unlink()
        moved.unlink()
        assert np.array_equal(learn.load_model("knn.json").predict_proba(X), want)


def test_corrupt_tree_model_exit_code_1(workspace, capsys):
    tmp, tsv, glove = workspace
    features = tmp / "features.csv"
    run(["featurize", tsv, "--glove", glove, "-o", features, "--report", tmp / "f.json"])
    model = tmp / "tree.json"
    assert run([
        "train", "--model", "decision_tree", "--features", features, "-o", model,
        "--report", tmp / "t.json",
    ]) == 0
    doc = json.loads(model.read_text())
    tree = doc["state"]["trees"][0]
    assert tree["feature"][0] >= 0
    # the root's left child points back at the root: routing would never end
    tree["left"][0] = 0
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["eval", "--model", model, "--features", features, "--report", tmp / "e.json"]) == 1
    err = capsys.readouterr().err
    assert "corrupt tree" in err
    assert "Traceback" not in err


def damaged(blob: bytes, how: str) -> bytes:
    """``blob`` cut in half, or with one byte's high bit flipped, which
    leaves a byte that cannot start a UTF-8 character."""
    if how == "truncated":
        return blob[: len(blob) // 2]
    i = len(blob) // 3
    return blob[:i] + bytes([blob[i] ^ 0x80]) + blob[i + 1 :]


@pytest.mark.parametrize("how", ["truncated", "byte_flipped"])
def test_damaged_model_file_is_named_on_eval(workspace, capsys, how):
    tmp, tsv, glove = workspace
    features = tmp / "features.csv"
    run(["featurize", tsv, "--glove", glove, "-o", features, "--report", tmp / "f.json"])
    model = tmp / "tree.json"
    assert run([
        "train", "--model", "decision_tree", "--features", features, "-o", model, "--report", tmp / "t.json",
    ]) == 0
    model.write_bytes(damaged(model.read_bytes(), how))
    capsys.readouterr()
    assert run(["eval", "--model", model, "--features", features, "--report", tmp / "e.json"]) == 1
    err = capsys.readouterr().err
    assert str(model) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("how", ["truncated", "byte_flipped"])
def test_damaged_tfidf_model_file_is_named(workspace, capsys, how):
    tmp, tsv, _ = workspace
    model = tmp / "tfidf.json"
    assert run(["tfidf-fit", tsv, "--analyzer", "word", "-o", model, "--report", tmp / "tf.json"]) == 0
    model.write_bytes(damaged(model.read_bytes(), how))
    capsys.readouterr()
    assert run(["tfidf-featurize", tsv, "--model", model, "-o", tmp / "vectors.npz", "--report", tmp / "tv.json"]) == 1
    err = capsys.readouterr().err
    assert str(model) in err
    assert "Traceback" not in err


def test_malformed_model_and_nan_features_exit_code_1(workspace, capsys):
    tmp, tsv, glove = workspace
    features = tmp / "features.csv"
    run(["featurize", tsv, "--glove", glove, "-o", features, "--report", tmp / "f.json"])
    model = tmp / "tree.json"
    assert run([
        "train", "--model", "decision_tree", "--features", features, "-o", model,
        "--report", tmp / "t.json",
    ]) == 0
    good = model.read_text()
    # a cell of the feature file reads nan
    lines = features.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = "nan"
    lines[1] = ",".join(cells)
    (tmp / "nan.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["eval", "--model", model, "--features", tmp / "nan.csv", "--report", tmp / "e.json"]) == 1
    assert "NaN" in capsys.readouterr().err

    doc = json.loads(good)
    del doc["state"]["trees"][0]["gain"]
    model.write_text(json.dumps(doc))
    assert run(["eval", "--model", model, "--features", features, "--report", tmp / "e.json"]) == 1
    err = capsys.readouterr().err
    assert str(model) in err and "gain" in err
    assert "Traceback" not in err


def test_tfidf_pipeline(workspace):
    tmp, tsv, _ = workspace
    model = tmp / "tfidf.json"
    vectors = tmp / "vectors.npz"
    assert run([
        "tfidf-fit", tsv, "--analyzer", "char", "--ngram-lo", "1", "--ngram-hi", "3",
        "--max-features", "2000", "-o", model, "--report", tmp / "tf.json",
    ]) == 0
    assert run([
        "tfidf-featurize", tsv, "--model", model, "-o", vectors,
        "--report", tmp / "tv.json",
    ]) == 0
    clf = tmp / "xgb-sparse.json"
    assert run([
        "train", "--model", "xgb", "--sparse", vectors,
        "--param", "n_estimators=20", "-o", clf, "--report", tmp / "t.json",
    ]) == 0
    assert run([
        "eval", "--model", clf, "--sparse", vectors, "--report", tmp / "e.json",
    ]) == 0
    acc = json.loads((tmp / "e.json").read_text())["results"]["metrics"]["accuracy"]
    assert acc >= 0.8


def test_sparse_features_keep_any_name_and_a_knn_model_reloads_them(workspace, monkeypatch):
    # the file keeps a name without .npz, and a knn trained on it takes the
    # cosine metric from its sparse rows, not from the suffix
    tmp, tsv, _ = workspace
    monkeypatch.chdir(tmp)  # reports without --report land in the working directory
    model, vectors, knn = tmp / "tfidf.json", tmp / "feats.sparse", tmp / "knn.json"
    assert run(["tfidf-fit", tsv, "--analyzer", "word", "-o", model]) == 0
    assert run(["tfidf-featurize", tsv, "--model", model, "-o", vectors]) == 0
    assert vectors.exists() and not (tmp / "feats.sparse.npz").exists()
    assert run(["train", "--model", "knn", "--sparse", vectors, "-o", knn]) == 0
    assert json.loads(knn.read_text())["state"]["metric"] == "cosine"
    assert run(["eval", "--model", knn, "--sparse", vectors, "--report", tmp / "e.json"]) == 0
    assert json.loads((tmp / "e.json").read_text())["results"]["metrics"]["accuracy"] >= 0.8


def _swap_columns(src, dst, a, b):
    """Copy a feature CSV with columns ``a`` and ``b`` swapped, names and
    values alike: the same width, other columns in two places."""
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows:
        row[a], row[b] = row[b], row[a]
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_model_records_columns_and_refuses_others(workspace, capsys, monkeypatch):
    tmp, tsv, glove = workspace
    monkeypatch.chdir(tmp)  # reports without --report land in the working directory
    features = tmp / "features.csv"
    run(["featurize", tsv, "--glove", glove, "-o", features, "--report", tmp / "f.json"])
    model = tmp / "tree.json"
    assert run(["train", "--model", "decision_tree", "--features", features, "-o", model]) == 0
    with open(features, newline="") as fh:
        header = next(csv.reader(fh))
    assert json.loads(model.read_text())["column_names"] == header[:-1]
    swapped = tmp / "swapped.csv"
    _swap_columns(features, swapped, 7, 8)
    narrow = tmp / "features20.csv"
    run(["featurize", tsv, "--glove", glove, "-o", narrow, "--drop-paper-eight",
         "--report", tmp / "f20.json"])
    for command in ("eval", "importance"):
        for data, expected in (
            (swapped, [f"column 7 of {swapped} is {header[8]!r}", repr(header[7])]),
            (narrow, [f"{narrow} has 20 columns"]),
        ):
            capsys.readouterr()
            assert run([command, "--model", model, "--features", data]) == 1
            err = capsys.readouterr().err
            assert all(e in err for e in expected), err
            assert "Traceback" not in err
    # the TF-IDF pair vectors carry their terms; a knn model records them
    tfidf_model, vectors = tmp / "tfidf.json", tmp / "vectors.npz"
    run(["tfidf-fit", tsv, "--analyzer", "word", "-o", tfidf_model])
    run(["tfidf-featurize", tsv, "--model", tfidf_model, "-o", vectors])
    knn = tmp / "knn.json"
    assert run(["train", "--model", "knn", "--sparse", vectors, "-o", knn]) == 0
    names = json.loads(knn.read_text())["column_names"]
    assert names[0].startswith("q1:") and names[-1].startswith("q2:")
    assert len(names) == 2 * len(json.loads(tfidf_model.read_text())["terms"])
    assert run(["eval", "--model", knn, "--sparse", vectors]) == 0


def test_model_saved_without_column_names_still_loads(workspace, capsys, monkeypatch):
    from dupliq import featmat, learn
    from dupliq.sparse_io import load_sparse_features, save_sparse_features

    tmp, tsv, glove = workspace
    monkeypatch.chdir(tmp)  # reports without --report land in the working directory
    features = tmp / "features.csv"
    run(["featurize", tsv, "--glove", glove, "-o", features, "--report", tmp / "f.json"])
    model = tmp / "xgb.json"
    assert run(["train", "--model", "xgb", "--features", features,
                "--param", "n_estimators=5", "-o", model]) == 0
    # the format of the models saved before names were recorded
    doc = json.loads(model.read_text())
    del doc["column_names"]
    old = tmp / "old.json"
    old.write_text(json.dumps(doc, sort_keys=True))
    loaded = learn.load_model(old)
    assert loaded.column_names is None
    X = featmat.load_matrix(features).rows
    assert np.array_equal(loaded.predict_proba(X), learn.load_model(model).predict_proba(X))
    # nothing to compare: any columns of the right width are taken
    swapped = tmp / "swapped.csv"
    _swap_columns(features, swapped, 7, 8)
    assert run(["eval", "--model", old, "--features", swapped, "--report", tmp / "e.json"]) == 0
    assert run(["importance", "--model", old, "--features", swapped, "--repeats", 1]) == 0
    # a sparse file written without names is taken by a model with names
    tfidf_model, vectors = tmp / "tfidf.json", tmp / "vectors.npz"
    run(["tfidf-fit", tsv, "--analyzer", "word", "-o", tfidf_model])
    run(["tfidf-featurize", tsv, "--model", tfidf_model, "-o", vectors])
    tree = tmp / "tree.json"
    assert run(["train", "--model", "decision_tree", "--sparse", vectors, "-o", tree]) == 0
    unnamed = tmp / "unnamed.npz"
    X, y, _names = load_sparse_features(vectors)
    save_sparse_features(unnamed, X, y)
    assert run(["eval", "--model", tree, "--sparse", unnamed]) == 0
    capsys.readouterr()
    assert run(["importance", "--model", tree, "--sparse", unnamed, "--top", 1]) == 0
    assert capsys.readouterr().out.split("\n")[1].startswith("f")


def test_truncated_sparse_file_exit_code_1(workspace, capsys):
    tmp, tsv, _ = workspace
    model = tmp / "tfidf.json"
    vectors = tmp / "vectors.npz"
    run(["tfidf-fit", tsv, "--analyzer", "word", "-o", model, "--report", tmp / "tf.json"])
    run(["tfidf-featurize", tsv, "--model", model, "-o", vectors, "--report", tmp / "tv.json"])
    blob = vectors.read_bytes()
    cut = tmp / "cut.npz"
    cut.write_bytes(blob[: len(blob) // 2])
    capsys.readouterr()
    assert run([
        "train", "--model", "knn", "--sparse", cut, "-o", tmp / "knn-cut.json",
        "--report", tmp / "t.json",
    ]) == 1
    err = capsys.readouterr().err
    assert str(cut) in err
    assert "Traceback" not in err


def test_grid_command(workspace):
    tmp = workspace[0]
    # xor-patterned features: a stump cannot win, a deeper tree can
    features = tmp / "features.csv"
    with open(features, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "is_duplicate"])
        for _ in range(12):
            for x1, x2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
                writer.writerow([x1, x2, x1 ^ x2])
    spec = tmp / "grid.json"
    spec.write_text(json.dumps([
        {"kind": "decision_tree", "hyperparameters": {"max_depth": 1, "min_samples_leaf": 1}},
        {"kind": "decision_tree", "hyperparameters": {"max_depth": 6, "min_samples_leaf": 1}},
    ]))
    assert run([
        "grid", "--spec", spec, "--features", features,
        "--val-fraction", "0.25", "--report", tmp / "g.json",
    ]) == 0
    doc = json.loads((tmp / "g.json").read_text())
    assert doc["results"]["best"]["hyperparameters"]["max_depth"] == 6


def test_nn_commands(workspace):
    tmp, _, _ = workspace
    prefix = tmp / "net"
    assert run([
        "nn-build", "--arch", "2", "--toy", "-o", prefix, "--report", tmp / "b.json",
    ]) == 0
    assert (tmp / "net.json").exists() and (tmp / "net.bin").exists()
    # --toy frozen rows: the padding row, then one normal draw per word
    rng = np.random.default_rng(0)
    want = np.vstack([np.zeros(8), *(rng.normal(size=8) for _ in range(30))])
    assert [w.tolist() for w in _frozen_rows(prefix)] == [want.tolist()] * 2

    assert run([
        "nn-train", "--arch", "1", "--toy", "--samples", "40", "--epochs", "5",
        "--batch-size", "20", "--learning-rate", "0.01", "--seed", "1",
        "-o", tmp / "trained", "--report", tmp / "tr.json",
    ]) == 0
    doc = json.loads((tmp / "tr.json").read_text())
    assert len(doc["results"]["loss"]) == 5

    assert run([
        "nn-gradcheck", "--arch", "3", "--toy", "--report", tmp / "gc.json",
    ]) == 0
    worst = json.loads((tmp / "gc.json").read_text())["results"]["max_relative_error"]
    assert worst <= 1e-4


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["nn-train", "--arch", "1", "--toy", "--samples", "0"], "--samples"),
        (["nn-train", "--arch", "1", "--toy", "--epochs", "0"], "--epochs"),
        (["nn-train", "--arch", "1", "--toy", "--batch-size", "0"], "--batch-size"),
        (["nn-gradcheck", "--arch", "1", "--toy", "--batch-size", "0"], "--batch-size"),
        (["reproduce", "table5", "--sample", "0"], "--sample"),
        # 0 words read from --w2v make every wmd the empty-bag sentinel, and
        # 0 repeats make NaN weights
        (["featurize", "{tsv}", "--glove", "{glove}", "--max-words", "0", "-o", "{tmp}/f.csv"], "--max-words"),
        (["reproduce", "table5", "--max-words", "0"], "--max-words"),
        (["importance", "--model", "{tmp}/m.json", "--features", "{tmp}/f.csv", "--repeats", "0"], "--repeats"),
        # a negative --top sliced the ranking from its end
        (["importance", "--model", "{tmp}/m.json", "--features", "{tmp}/f.csv", "--top", "-1"], "--top"),
        (["reproduce", "table7", "--ngram-lo", "0"], "--ngram-lo"),
        (["reproduce", "table7", "--ngram-hi", "0"], "--ngram-hi"),
    ],
)
def test_zero_counts_exit_code_1(workspace, capsys, argv, flag):
    tmp, tsv, glove = workspace
    argv = [a.format(tsv=tsv, glove=glove, tmp=tmp) for a in argv]
    out = ["-o", tmp / "out"] if argv[0] == "nn-train" else []
    tsv_args = ["--tsv", tsv, "--glove", glove] if argv[0] == "reproduce" else []
    assert run(argv + out + tsv_args + ["--report", tmp / "r.json"]) == 1
    err = capsys.readouterr().err
    value = argv[argv.index(flag) + 1]
    assert f"argument {flag}: must be at least 1, got {value}" in err and "Traceback" not in err, err
    assert not (tmp / "r.json").exists()


def _frozen_rows(prefix):
    """The frozen embedding matrices of a saved network, read straight from
    its manifest and weight blob."""
    manifest = json.loads(prefix.with_suffix(".json").read_text())
    blob = np.fromfile(prefix.with_suffix(".bin"), dtype="<f8")
    offset, frozen = 0, []
    for param in manifest["params"]:
        size = int(np.prod(param["shape"]))
        if param["name"].endswith(".embedding.w") and not param["trainable"]:
            frozen.append(blob[offset : offset + size].reshape(param["shape"]))
        offset += size
    return frozen


def _assert_frozen_rows_hold_glove(prefix, glove, rows):
    """Both frozen embedding branches of a saved network hold the GloVe
    vector of each word of ``rows`` at its vocabulary index."""
    from dupliq.embed import load_glove_text
    from dupliq.neural import build_vocab

    vocab = build_vocab([r[3] for r in rows] + [r[4] for r in rows])
    vectors = load_glove_text(glove).vocab
    frozen = _frozen_rows(prefix)
    assert len(frozen) == 2
    for w in frozen:
        assert not w[0].any()  # the padding row
        for word, i in vocab.items():
            assert np.array_equal(w[i], vectors[word]), word


def _tsv_rows(tsv):
    with open(tsv, newline="") as fh:
        return list(csv.reader(fh, delimiter="\t"))[1:]


def test_nn_train_frozen_rows_hold_glove_vectors(workspace):
    tmp, tsv, glove = workspace
    samples = 4
    assert run([
        "nn-train", "--arch", "2", "--pairs", tsv, "--glove", glove,
        "--vocab-size", len(WORDS) + 1, "--samples", samples, "--epochs", "1",
        "--batch-size", samples, "-o", tmp / "arch2", "--report", tmp / "tr.json",
    ]) == 0
    _assert_frozen_rows_hold_glove(tmp / "arch2", glove, _tsv_rows(tsv)[:samples])


def test_nn_build_frozen_rows_hold_glove_vectors(workspace, capsys, monkeypatch):
    tmp, tsv, glove = workspace
    monkeypatch.chdir(tmp)  # reports without --report land in the working directory
    assert run([
        "nn-build", "--arch", "2", "--pairs", tsv, "--glove", glove,
        "--vocab-size", len(WORDS) + 1, "-o", tmp / "arch2",
    ]) == 0
    _assert_frozen_rows_hold_glove(tmp / "arch2", glove, _tsv_rows(tsv))
    # without --toy the frozen rows need the words of --pairs
    for command in (["nn-build", "-o", tmp / "bare"], ["nn-gradcheck"]):
        capsys.readouterr()
        assert run([*command, "--arch", "3", "--glove", glove, "--vocab-size", 30]) == 1
        err = capsys.readouterr().err
        assert "--pairs" in err and "Traceback" not in err
    assert not (tmp / "bare.json").exists()
    # the shared vocabulary check
    assert run(["nn-build", "--arch", "2", "--pairs", tsv, "--glove", glove,
                "--vocab-size", 5, "-o", tmp / "small"]) == 1
    assert "too small" in capsys.readouterr().err


def test_nn_build_reads_only_the_vocabularys_embedding_rows(workspace, monkeypatch):
    import dupliq.cli as cli
    from dupliq.neural import build_vocab

    tmp, tsv, glove = workspace
    filters = []
    real = cli.load_glove_text

    def recording(path, vocab_filter=None):
        filters.append(vocab_filter)
        return real(path, vocab_filter=vocab_filter)

    monkeypatch.setattr(cli, "load_glove_text", recording)
    assert run([
        "nn-build", "--arch", "2", "--pairs", tsv, "--glove", glove,
        "--vocab-size", len(WORDS) + 1, "-o", tmp / "arch2", "--report", tmp / "b.json",
    ]) == 0
    rows = _tsv_rows(tsv)
    assert filters == [set(build_vocab([r[3] for r in rows] + [r[4] for r in rows]))]
    _assert_frozen_rows_hold_glove(tmp / "arch2", glove, rows)


def _gzipped_vectors(glove, flag) -> bytearray:
    """The workspace's GloVe vectors, gzipped, as text or (``--w2v``) binary."""
    raw = glove.read_bytes()
    if flag == "--w2v":
        rows = [line.split(" ") for line in glove.read_text().splitlines()]
        raw = f"{len(rows)} {len(rows[0]) - 1}\n".encode() + b"".join(
            row[0].encode() + b" " + np.array(row[1:], dtype="<f4").tobytes() for row in rows
        )
    return bytearray(gzip.compress(raw))


@pytest.mark.parametrize("flag", ["--glove", "--w2v"])
def test_gzip_embeddings_cut_in_half_exit_code_1(workspace, capsys, flag):
    tmp, tsv, glove = workspace
    packed = _gzipped_vectors(glove, flag)
    cut = tmp / f"vectors{flag}.gz"
    cut.write_bytes(packed[: len(packed) // 2])
    assert run(["featurize", tsv, flag, cut, "-o", tmp / "f.csv", "--report", tmp / "f.json"]) == 1
    err = capsys.readouterr().err
    assert str(cut) in err and "Traceback" not in err


# header byte 2 is the compression method; the trailer starts with the
# CRC-32, which only a reader that reaches the end of the stream checks
@pytest.mark.parametrize(
    "flag, byte", [("--glove", 2), ("--glove", -8), ("--w2v", 2)], ids=["glove-header", "glove-crc", "w2v-header"]
)
def test_gzip_embeddings_with_a_bad_header_or_crc_exit_code_1(workspace, capsys, flag, byte):
    tmp, tsv, glove = workspace
    packed = _gzipped_vectors(glove, flag)
    packed[byte] ^= 0x40
    bad = tmp / f"vectors{flag}.gz"
    bad.write_bytes(bytes(packed))
    assert run(["featurize", tsv, flag, bad, "-o", tmp / "f.csv", "--report", tmp / "f.json"]) == 1
    err = capsys.readouterr().err
    assert f"{bad}: damaged gzip stream" in err and "Traceback" not in err


def test_tfidf_featurize_without_pairs_exit_code_1(workspace, capsys):
    tmp, tsv, _ = workspace
    model = tmp / "tfidf.json"
    empty = tmp / "empty.tsv"
    empty.write_text(tsv.read_text().splitlines(keepends=True)[0])
    assert run(["tfidf-fit", tsv, "-o", model, "--report", tmp / "tf.json"]) == 0
    capsys.readouterr()
    assert run(["tfidf-featurize", empty, "--model", model, "-o", tmp / "v.npz"]) == 1
    err = capsys.readouterr().err
    assert str(empty) in err and "Traceback" not in err


def _replace_term_id(doc, new_id):
    term, _, idf = doc["terms"][-1]
    return {**doc, "terms": doc["terms"][:-1] + [[term, new_id, idf]]}


BAD_TFIDF_MODELS = {
    "list": (lambda doc: [], "TF-IDF model format version (none); this dupliq reads version 1"),
    "no_terms": (lambda doc: {"format_version": 1}, "missing key 'terms'"),
    "version_true": (lambda doc: {**doc, "format_version": True}, "TF-IDF model format version True; this dupliq reads"),
    "id_past_the_end": (lambda doc: _replace_term_id(doc, len(doc["terms"])), "term ids"),
    "negative_id": (lambda doc: _replace_term_id(doc, -1), "term ids"),
}


@pytest.mark.parametrize("case", sorted(BAD_TFIDF_MODELS))
def test_malformed_tfidf_model_exit_code_1(workspace, capsys, case):
    tmp, tsv, _ = workspace
    damage, message = BAD_TFIDF_MODELS[case]
    model = tmp / "tfidf.json"
    assert run(["tfidf-fit", tsv, "--analyzer", "word", "-o", model, "--report", tmp / "tf.json"]) == 0
    model.write_text(json.dumps(damage(json.loads(model.read_text()))))
    capsys.readouterr()
    assert run(["tfidf-featurize", tsv, "--model", model, "-o", tmp / "v.npz", "--report", tmp / "tv.json"]) == 1
    err = capsys.readouterr().err
    assert f"{model}: " in err and message in err and "Traceback" not in err, err


def test_reproduce_table5_subset_and_determinism(workspace):
    tmp, tsv, glove = workspace
    r1 = tmp / "rep1.json"
    r2 = tmp / "rep2.json"
    base = [
        "reproduce", "table5", "--tsv", tsv, "--glove", glove,
        "--sample", "60", "--seed", "7", "--kinds", "xgb,knn",
    ]
    assert run(base + ["--report", r1]) == 0
    assert run(base + ["--report", r2]) == 0
    b1 = r1.read_bytes()
    b2 = r2.read_bytes()
    assert b1 == b2  # byte-identical reports for identical config and seed
    doc = json.loads(b1)
    assert set(doc["results"]["results"]) == {"xgb", "knn"}


def test_reproduce_table6_trains_on_the_twenty_kept_columns(workspace, monkeypatch):
    from dupliq import featmat, learn

    tmp, tsv, glove = workspace
    extracted, trained = [], []
    extract, fit = featmat.extract_matrix, learn.train

    def spy_extract(*args, **kwargs):
        extracted.append(extract(*args, **kwargs))
        return extracted[-1]

    def spy_train(spec, X, y):
        trained.append((spec.kind, X))
        return fit(spec, X, y)

    monkeypatch.setattr(featmat, "extract_matrix", spy_extract)
    monkeypatch.setattr(learn, "train", spy_train)
    # one usable CPU: the kinds train in this process, where the spy sees them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    report = tmp / "t6.json"
    assert run([
        "reproduce", "table6", "--tsv", tsv, "--glove", glove, "--sample", "60",
        "--seed", "5", "--kinds", "decision_tree,knn", "--report", report,
    ]) == 0
    full = extracted[0]  # the training split's 28 columns
    kept = [j for j, name in enumerate(full.column_names) if name not in featmat.DEFAULT_DROP_LIST]
    assert len(full.column_names) == 28 and len(kept) == 20
    assert [kind for kind, _ in trained] == ["decision_tree", "knn"]
    for _, X in trained:
        assert np.array_equal(X, full.rows[:, kept])
    assert set(json.loads(report.read_text())["results"]["results"]) == {"decision_tree", "knn"}


def test_reproduce_table7_runs_both_analyzers(workspace):
    tmp, tsv, _ = workspace
    report = tmp / "t7.json"
    assert run([
        "reproduce", "table7", "--tsv", tsv, "--sample", "60", "--seed", "3",
        "--kinds", "xgb", "--max-features", "1500", "--report", report,
    ]) == 0
    doc = json.loads(report.read_text())
    assert set(doc["results"]["results"]) == {"word", "char"}


# A corpus whose tables, split in half, reach ARRAY_BLOCK pairs: from that
# size a table is featurized in two processes when two CPUs are usable.
# (The workspace's 80 rows, sampled to 60, stay under it.)
SPLIT_ROWS = 2 * ARRAY_BLOCK + 32


@pytest.fixture
def split_workspace(workspace):
    tmp, tsv, glove = workspace
    write_corpus(tsv, n=SPLIT_ROWS)
    return workspace


REPRODUCE_RUNS = {
    "table5": ["--kinds", "xgb,random_forest,knn"],
    "table6": ["--kinds", "xgb,random_forest,knn"],
    "table7": ["--kinds", "knn,xgb,decision_tree", "--max-features", "1500"],
}


def _usable_cpus(monkeypatch, cpus):
    """Make ``cpus`` CPUs usable to this process; None: the platform has no
    ``sched_getaffinity``."""
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _caller_pids(monkeypatch, module, name, path):
    """Make ``module.name`` append the id of the process that calls it to
    ``path``, forked processes included; returns a function that gives, and
    forgets, the ids of the callers so far."""
    real = getattr(module, name)

    def spy(*args, **kwargs):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    def callers():
        pids = {int(line) for line in path.read_text().split()} if path.exists() else set()
        path.unlink(missing_ok=True)
        return pids

    monkeypatch.setattr(module, name, spy)
    return callers


@pytest.mark.parametrize("table", sorted(REPRODUCE_RUNS))
def test_reproduce_reports_do_not_depend_on_the_usable_cpus(split_workspace, monkeypatch, table):
    """One usable CPU featurizes and trains in this process; two featurize
    each table's text columns and train the kinds in forked processes: the
    reports are the same bytes."""
    from dupliq import fuzzy, learn

    tmp, tsv, glove = split_workspace
    fit = learn.train

    def spy_train(spec, X, y):
        (tmp / f"{spec.kind}.pid").write_text(str(os.getpid()))
        return fit(spec, X, y)

    monkeypatch.setattr(learn, "train", spy_train)
    featurizers = _caller_pids(monkeypatch, fuzzy, "fuzzy_features", tmp / "fuzzy.pids")
    kinds = REPRODUCE_RUNS[table][1].split(",")
    reports = {}
    for cpus in (None, 1, 2):
        _usable_cpus(monkeypatch, cpus)
        reports[cpus] = tmp / f"{table}-{cpus}.json"
        assert run([
            "reproduce", table, "--tsv", tsv, "--glove", glove, "--test", "0.5", "--seed", "2",
            *REPRODUCE_RUNS[table], "--report", reports[cpus],
        ]) == 0
        pids = {int((tmp / f"{kind}.pid").read_text()) for kind in kinds}
        if cpus == 2:
            assert os.getpid() not in pids, pids
        else:
            assert pids == {os.getpid()}, (cpus, pids)
        # with two CPUs the train and the test table each fork their own
        fuzzy_pids = featurizers()
        if table == "table7":
            assert fuzzy_pids == set()
        elif cpus == 2:
            assert len(fuzzy_pids) == 2 and os.getpid() not in fuzzy_pids, fuzzy_pids
        else:
            assert fuzzy_pids == {os.getpid()}, (cpus, fuzzy_pids)
        for kind in kinds:
            (tmp / f"{kind}.pid").unlink()
    doc = json.loads(reports[2].read_text())["results"]
    assert min(doc["train_rows"], doc["test_rows"]) >= ARRAY_BLOCK, doc
    assert reports[None].read_bytes() == reports[1].read_bytes() == reports[2].read_bytes()
    assert multiprocessing.active_children() == []


# sha256 of the matrix featurize writes for the split workspace, as it was
# when every column was computed in one process.  Like the golden model
# hashes it also pins numpy's and scipy's float arithmetic.
FEATURIZE_SHA256 = "252170b9714f79ae959fb861dbb86858fca60a1704b16d726a680ce764f277db"


def test_featurize_matrix_does_not_depend_on_the_usable_cpus(split_workspace, monkeypatch):
    from dupliq import fuzzy

    tmp, tsv, glove = split_workspace
    featurizers = _caller_pids(monkeypatch, fuzzy, "fuzzy_features", tmp / "fuzzy.pids")
    for cpus in (None, 1, 2):
        _usable_cpus(monkeypatch, cpus)
        out = tmp / f"f-{cpus}.csv"
        assert run(["featurize", tsv, "--glove", glove, "-o", out, "--report", tmp / "f.json"]) == 0
        assert json.loads((tmp / "f.json").read_text())["results"]["rows"] == SPLIT_ROWS
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FEATURIZE_SHA256, cpus
        fuzzy_pids = featurizers()
        assert len(fuzzy_pids) == 1 and (os.getpid() in fuzzy_pids) == (cpus != 2), (cpus, fuzzy_pids)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", ["featurize", "reproduce"])
@pytest.mark.parametrize(
    "fault, code, message",
    [
        ("value_error", 1, "error: fuzzy cannot score this"),
        ("process_exit", 2, "i/o error: a featurizing process died: "),
        ("fork_fails", 2, "i/o error: could not start a featurizing process: "),
    ],
)
def test_featurizing_process_faults(split_workspace, monkeypatch, capsys, command, fault, code, message):
    """A fuzzy column that raises in the featurizing process exits 1 with
    its message; a featurizing process that dies or cannot start exits 2.
    Either way one error line is printed, with no traceback, no process is
    left running, and nothing is written."""
    from dupliq import fuzzy

    tmp, tsv, glove = split_workspace
    score, here = fuzzy.fuzzy_features, os.getpid()

    def fuzzy_features(q1, q2):
        if os.getpid() != here:
            if fault == "value_error":
                raise ValueError("fuzzy cannot score this")
            os._exit(3)
        return score(q1, q2)

    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    _usable_cpus(monkeypatch, 2)
    if fault == "fork_fails":
        monkeypatch.setattr(os, "fork", fork)
    else:
        monkeypatch.setattr(fuzzy, "fuzzy_features", fuzzy_features)
    out = tmp / "out.csv"
    argv = {
        "featurize": ["featurize", tsv, "--glove", glove, "-o", out],
        "reproduce": ["reproduce", "table5", "--tsv", tsv, "--glove", glove, "--test", "0.5",
                      "--kinds", "knn,xgb"],
    }[command]
    capsys.readouterr()
    assert run(argv + ["--report", tmp / "r.json"]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err, err
    assert err.count("error: ") == 1, err
    assert multiprocessing.active_children() == []
    assert not (tmp / "r.json").exists() and not out.exists()


@pytest.mark.parametrize(
    "fault, code, message",
    [
        ("value_error", 1, "error: xgb cannot train on this"),
        ("process_exit", 2, "i/o error: a training process died: "),
        ("fork_fails", 2, "i/o error: could not start a training process: "),
    ],
)
def test_reproduce_training_process_faults(workspace, monkeypatch, capsys, fault, code, message):
    """A kind that raises exits 1 with its message; a training process that
    dies, or that cannot start after another one did, exits 2.  Either way
    no traceback is printed and no training process is left running."""
    from dupliq import learn

    tmp, tsv, glove = workspace
    fit, fork, here = learn.train, os.fork, os.getpid()
    forks = []

    def train(spec, X, y):
        if spec.kind == "xgb":
            if fault == "value_error":
                raise ValueError("xgb cannot train on this")
            assert os.getpid() != here, "xgb trained in the test process"
            os._exit(3)
        return fit(spec, X, y)

    def fork_once():
        if forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forks.append(fork())
        return forks[-1]

    _usable_cpus(monkeypatch, 2)
    if fault == "fork_fails":
        monkeypatch.setattr(os, "fork", fork_once)
    else:
        monkeypatch.setattr(learn, "train", train)
    capsys.readouterr()
    assert run([
        "reproduce", "table5", "--tsv", tsv, "--glove", glove, "--sample", "60", "--seed", "2",
        "--kinds", "knn,xgb,decision_tree", "--report", tmp / "r.json",
    ]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err, err
    assert len(forks) == (fault == "fork_fails")
    assert multiprocessing.active_children() == []
    assert not (tmp / "r.json").exists()


def test_config_file_defaults_with_flag_override(workspace):
    tmp, tsv, glove = workspace
    config = tmp / "config.json"
    config.write_text(json.dumps({
        "config_version": 1,
        "defaults": {"seed": 9, "test": 0.25},
    }))
    assert run([
        "split", tsv, "--config", config,
        "-o-train", tmp / "a.tsv", "-o-test", tmp / "b.tsv",
        "--report", tmp / "s1.json",
    ]) == 0
    doc = json.loads((tmp / "s1.json").read_text())
    assert doc["config"]["seed"] == 9
    assert doc["config"]["test"] == 0.25
    # explicit flag wins over the config file
    assert run([
        "split", tsv, "--config", config, "--test", "0.5",
        "-o-train", tmp / "c.tsv", "-o-test", tmp / "d.tsv",
        "--report", tmp / "s2.json",
    ]) == 0
    doc2 = json.loads((tmp / "s2.json").read_text())
    assert doc2["config"]["test"] == 0.5
    assert doc2["config"]["seed"] == 9


@pytest.mark.parametrize("form", ["--config PATH", "--config=PATH", "--conf PATH"])
def test_config_path_in_every_form_argparse_takes(workspace, form):
    tmp, tsv, _ = workspace
    config = tmp / "config.json"
    config.write_text(json.dumps({"config_version": 1, "defaults": {"seed": 9}}))
    flag = [f"--config={config}"] if "=" in form else [form.split()[0], config]
    assert run([
        "split", tsv, *flag, "-o-train", tmp / "a.tsv", "-o-test", tmp / "b.tsv",
        "--report", tmp / "s.json",
    ]) == 0
    assert json.loads((tmp / "s.json").read_text())["config"]["seed"] == 9


@pytest.mark.parametrize(
    "argv",
    [
        ["nn-build", "--arch", "1", "--toy", "--vocab-size", "0", "-o", "{tmp}/net"],
        ["nn-train", "--arch", "1", "--toy", "--vocab-size", "1", "-o", "{tmp}/net"],
        ["nn-gradcheck", "--arch", "1", "--toy", "--vocab-size", "1"],
        ["nn-gradcheck", "--arch", "1", "--pairs", "{tsv}", "--vocab-size", "0"],
    ],
)
def test_vocab_size_below_two_exit_code_1(workspace, capsys, argv):
    # a vocabulary holds the padding index and at least one token
    tmp, tsv, _ = workspace
    argv = [a.format(tsv=tsv, tmp=tmp) for a in argv]
    assert run(argv + ["--report", tmp / "r.json"]) == 1
    err = capsys.readouterr().err
    size = argv[argv.index("--vocab-size") + 1]
    assert f"argument --vocab-size: must be at least 2, got {size}" in err, err
    assert "Traceback" not in err
    assert not (tmp / "r.json").exists() and not (tmp / "net.json").exists()


@pytest.mark.parametrize(
    "rate, message",
    [
        ("nan", "learning_rate must be a finite number, got nan"),
        ("inf", "learning_rate must be a finite number, got inf"),
        ("1e308", "loss became non-finite at epoch 0, batch 1: "),
    ],
    ids=["nan", "inf", "1e308"],
)
def test_nn_train_learning_rate_not_finite_or_diverging_exit_code_1(workspace, capsys, rate, message):
    tmp, _, _ = workspace
    argv = [
        "nn-train", "--arch", "1", "--toy", "--samples", "40", "--epochs", "3",
        "--batch-size", "10", "--learning-rate", rate, "-o", tmp / "net", "--report", tmp / "r.json",
    ]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err, err
    assert not (tmp / "r.json").exists() and not (tmp / "net.json").exists()


@pytest.mark.parametrize("cpus", [1, 2])
def test_diverging_nn_train_prints_its_error_alone(workspace, monkeypatch, capsys, cpus):
    """The overflows on the way to a non-finite loss do not warn, on the
    helper thread of two usable CPUs either: stderr is the error line."""
    tmp, _, _ = workspace
    _usable_cpus(monkeypatch, cpus)
    argv = [
        "nn-train", "--arch", "1", "--toy", "--samples", "40", "--epochs", "3",
        "--batch-size", "10", "--learning-rate", "1e308", "-o", tmp / "net",
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: loss became non-finite at epoch 0, batch 1: "), err
    assert err.count("\n") == 1, err


def test_no_option_but_seed_and_arch_takes_any_int():
    # a count takes _count, which refuses 0 and negatives; a plain int let
    # --top -1 and --vocab-size 0 through
    from dupliq.cli import build_parser

    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    loose = {
        (name, flag)
        for name, sub in [("", parser), *subparsers.choices.items()]
        for action in sub._actions
        if action.type is int
        for flag in action.option_strings
        if flag not in ("--seed", "--arch")
    }
    assert loose == set()


BAD_MAX_FEATURES = {
    "tfidf_fit_negative": ["tfidf-fit", "{tsv}", "--max-features=-1", "-o", "{tmp}/m.json"],
    "tfidf_fit_zero": ["tfidf-fit", "{tsv}", "--max-features", "0", "-o", "{tmp}/m.json"],
    "reproduce_zero": ["reproduce", "table7", "--tsv", "{tsv}", "--sample", "60", "--max-features", "0"],
}


@pytest.mark.parametrize("case", sorted(BAD_MAX_FEATURES))
def test_max_features_below_one_exit_code_1(workspace, capsys, case):
    tmp, tsv, _ = workspace
    argv = [a.format(tsv=tsv, tmp=tmp) for a in BAD_MAX_FEATURES[case]]
    capsys.readouterr()
    assert run(argv + ["--report", tmp / "r.json"]) == 1
    err = capsys.readouterr().err
    assert "--max-features" in err and "must be at least 1" in err and "Traceback" not in err, err
    assert not (tmp / "r.json").exists() and not (tmp / "m.json").exists()


BAD_CONFIGS = {
    "count_flag": ("reproduce", {"sample": 0}, "sample=0: must be at least 1, got 0"),
    "switch_as_string": ("stats", {"skip_bad_rows": "no"}, "skip_bad_rows='no': must be true or false"),
    "int_flag_string": ("split", {"seed": "x"}, "seed='x': invalid int value"),
    "not_an_object": ("stats", [], "a config file holds a JSON object"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_values_exit_code_1(workspace, capsys, case):
    tmp, tsv, glove = workspace
    command, defaults, message = BAD_CONFIGS[case]
    config = tmp / "config.json"
    doc = {"config_version": 1, "defaults": defaults} if isinstance(defaults, dict) else defaults
    config.write_text(json.dumps(doc))
    argv = {
        "reproduce": ["reproduce", "table5", "--tsv", tsv, "--glove", glove],
        "stats": ["stats", tsv],
        "split": ["split", tsv, "-o-train", tmp / "a.tsv", "-o-test", tmp / "b.tsv"],
    }[command]
    capsys.readouterr()
    assert run(argv + ["--config", config, "--report", tmp / "r.json"]) == 1
    err = capsys.readouterr().err
    assert f"{config}: " in err and message in err and "Traceback" not in err, err
    assert not (tmp / "r.json").exists()


def test_config_switch_takes_a_json_boolean(workspace):
    tmp, tsv, _ = workspace
    bad = tmp / "bad.tsv"
    bad.write_text(tsv.read_text() + "not a row\n")
    config = tmp / "config.json"
    for skip, code in ((True, 0), (False, 1)):
        # a value that only another command's flag refuses does not stop this one
        defaults = {"skip_bad_rows": skip, "sample": 0}
        config.write_text(json.dumps({"config_version": 1, "defaults": defaults}))
        assert run(["stats", bad, "--config", config, "--report", tmp / "s.json"]) == code


BAD_PARAMS = [
    ("decision_tree", "max_depht=3", "'max_depht'"),
    ("random_forest", "max_features=log2", "max_features='log2'"),
    ("decision_tree", "max_depth=abc", "max_depth='abc'"),
    ("random_forest", "n_estimators=-3", "n_estimators=-3"),
    ("extra_trees", "n_estimators=0", "n_estimators=0"),
    ("xgb", "n_estimators=-3", "n_estimators=-3"),
    ("knn", "k=true", "k=True"),
    ("gbm", "subsample=0", "subsample=0"),
]

BAD_GRIDS = [
    ({"kind": "xgb"}, "JSON list"),
    ([{"hyperparameters": {"max_depth": 3}}], "{kind, hyperparameters}"),
    (["xgb"], "{kind, hyperparameters}"),
    ([{"kind": "xgb", "hyperparameters": [3]}], "{kind, hyperparameters}"),
    ([{"kind": "xgb", "hyperparams": {}}], "{kind, hyperparameters}"),
    ([{"kind": "svm"}], "unknown classifier kind 'svm'"),
    (
        [{"kind": "decision_tree", "hyperparameters": {"max_depth": 3}},
         {"kind": "random_forest", "hyperparameters": {"n_estimators": 0}}],
        "random_forest hyperparameter n_estimators=0",
    ),
    ([{"kind": "decision_tree", "hyperparameters": {"max_depht": 3}}], "decision_tree has no hyperparameter 'max_depht'"),
]


def test_bad_hyperparameters_and_grid_specs_exit_code_1(workspace, capsys):
    tmp, tsv, glove = workspace
    features = tmp / "features.csv"
    run(["featurize", tsv, "--glove", glove, "-o", features, "--report", tmp / "f.json"])
    model = tmp / "model.json"
    for kind, param, named in BAD_PARAMS:
        capsys.readouterr()
        assert run([
            "train", "--model", kind, "--features", features, "--param", param, "-o", model,
            "--report", tmp / "t.json",
        ]) == 1, param
        err = capsys.readouterr().err
        assert kind in err and named in err and "Traceback" not in err, err
        assert not model.exists()
    spec = tmp / "grid.json"
    for grid, named in BAD_GRIDS:
        spec.write_text(json.dumps(grid))
        assert run(["grid", "--spec", spec, "--features", features, "--report", tmp / "g.json"]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err, err


@pytest.mark.parametrize(
    "cell, value, named", [(-1, "8", "labels must be 0 or 1"), (0, "inf", "features contain NaN or infinity")]
)
def test_feature_file_with_a_bad_label_or_value_is_named(workspace, capsys, cell, value, named):
    tmp, tsv, glove = workspace
    features = tmp / "features.csv"
    run(["featurize", tsv, "--glove", glove, "-o", features, "--report", tmp / "f.json"])
    model = tmp / "tree.json"
    assert run(["train", "--model", "decision_tree", "--features", features, "-o", model, "--report", tmp / "t.json"]) == 0
    spec = tmp / "grid.json"
    spec.write_text(json.dumps([{"kind": "decision_tree"}]))
    lines = features.read_text().splitlines()
    cells = lines[1].split(",")
    cells[cell] = value
    bad = tmp / "bad.csv"
    bad.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    for argv in (["eval", "--model", model], ["importance", "--model", model], ["grid", "--spec", spec]):
        capsys.readouterr()
        assert run([*argv, "--features", bad, "--report", tmp / "r.json"]) == 1, argv
        err = capsys.readouterr().err
        assert f"{bad}: {named}" in err, err


def test_knn_overflowing_input_is_named_on_eval_and_importance(workspace, capsys):
    tmp, tsv, glove = workspace
    features = tmp / "features.csv"
    run(["featurize", tsv, "--glove", glove, "-o", features, "--report", tmp / "f.json"])
    model = tmp / "knn.json"
    assert run(["train", "--model", "knn", "--features", features, "-o", model, "--report", tmp / "t.json"]) == 0
    lines = features.read_text().splitlines()
    cells = lines[1].split(",")
    cells[0] = "1e308"
    big = tmp / "big.csv"
    big.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    for command in ("eval", "importance"):
        capsys.readouterr()
        assert run([command, "--model", model, "--features", big, "--report", tmp / "r.json"]) == 1
        err = capsys.readouterr().err
        assert f"{big}: input features exceed " in err and "Traceback" not in err, err


@pytest.mark.parametrize("how", ["truncated", "empty", "byte_flipped"])
@pytest.mark.parametrize("flag", ["--config", "--spec"])
def test_damaged_config_or_grid_spec_is_named(workspace, capsys, how, flag):
    tmp, tsv, glove = workspace
    if flag == "--config":
        path = tmp / "config.json"
        path.write_text(json.dumps({"config_version": 1, "defaults": {"skip-bad-rows": True}}))
        argv = ["stats", tsv, "--config", path]
    else:
        features = tmp / "features.csv"
        run(["featurize", tsv, "--glove", glove, "-o", features, "--report", tmp / "f.json"])
        path = tmp / "grid.json"
        path.write_text(json.dumps([{"kind": "decision_tree", "hyperparameters": {"max_depth": 2}}]))
        argv = ["grid", "--spec", path, "--features", features]
    path.write_bytes(b"" if how == "empty" else damaged(path.read_bytes(), how))
    capsys.readouterr()
    assert run([*argv, "--report", tmp / "r.json"]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err, err


def test_forest_without_trees_exit_code_1(workspace, capsys):
    tmp, tsv, glove = workspace
    features = tmp / "features.csv"
    run(["featurize", tsv, "--glove", glove, "-o", features, "--report", tmp / "f.json"])
    for kind, n_trees in (
        ("random_forest", 2), ("extra_trees", 2), ("decision_tree", None), ("adaboost", 0), ("xgb", 0),
    ):
        model = tmp / f"{kind}.json"
        params = [] if n_trees is None else ["--param", f"n_estimators={n_trees}"]
        assert run([
            "train", "--model", kind, "--features", features, *params, "-o", model, "--report", tmp / "t.json",
        ]) == 0
        doc = json.loads(model.read_text())
        trees = "stumps" if kind == "adaboost" else "trees"
        doc["state"][trees] = []
        if kind == "adaboost":
            doc["state"]["alphas"] = []
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run(["eval", "--model", model, "--features", features, "--report", tmp / "e.json"])
        err = capsys.readouterr().err
        # boosted models of zero trees are legitimate (n_estimators >= 0)
        if kind in ("adaboost", "xgb"):
            assert code == 0, err
        else:
            assert code == 1 and str(model) in err and "tree" in err, err
        assert "Traceback" not in err


def test_cli_import_leaves_out_scipy_optimize():
    # the transport solvers import it at their first solve: it took most
    # of the CLI's start-up, and most commands solve no transport
    import dupliq

    code = "import sys, dupliq.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(dupliq.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_out_the_process_pool():
    # reproduce and featurize import it when they fork: it would add to the
    # start-up of every command
    import dupliq

    code = (
        "import sys, dupliq.cli, dupliq.featmat; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dupliq.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def test_text_files_are_read_as_utf8_whatever_the_locale(workspace):
    """Under the C locale with UTF-8 mode off, the locale's encoding is
    ASCII: a GloVe word such as "café" loads only because every text open
    in dupliq names its encoding.  Each open that leaves it out also warns
    (``-X warn_default_encoding``), and such a warning from dupliq's code is
    made an error."""
    import dupliq

    tmp, tsv, glove = workspace
    with open(glove, "a", encoding="utf-8") as fh:
        fh.write("café 0.5 0.5 0.5 0.5 0.5 0.5\n")
    model = tmp / "tree.json"
    runs = [
        ["featurize", tsv, "--glove", glove, "-o", tmp / "f.csv", "--report", tmp / "f.json"],
        ["train", "--model", "decision_tree", "--features", tmp / "f.csv", "-o", model, "--report", tmp / "t.json"],
        ["tfidf-fit", tsv, "-o", tmp / "tfidf.json", "--report", tmp / "tf.json"],
        ["eval", "--model", model, "--features", tmp / "f.csv", "--report", tmp / "e.json"],
    ]
    code = (
        "import json, sys, warnings; "
        "warnings.filterwarnings('error', category=EncodingWarning, module='dupliq'); "
        "from dupliq.cli import main; "
        "print([main(argv) for argv in json.loads(sys.argv[1])])"
    )
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(dupliq.__file__).parents[1]),
        "LC_ALL": "C",
        "PYTHONCOERCECLOCALE": "0",
    }
    out = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-X", "warn_default_encoding", "-c", code,
         json.dumps([[str(a) for a in argv] for argv in runs])],
        capture_output=True, encoding="utf-8", env=env,
    )
    assert out.returncode == 0 and out.stdout.strip().endswith("[0, 0, 0, 0]"), out.stderr
