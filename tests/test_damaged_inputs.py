"""Every input kind the CLI reads, damaged: the command either runs (exit
0) or exits 1 or 2 with the damaged file's path in its message, and never
lets an exception out of ``main``.

The fixtures are tiny and built once; each example copies one of them,
cuts it short, empties it or flips some of its bytes, and runs the one
command that reads that kind of input in-process.  Saved models, three
tree kinds and the dense knn, are also damaged value by value: one number
of their state replaced by a value training never writes.
"""

import contextlib
import copy
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dupliq.cli import main
from dupliq.featmat import load_matrix
from dupliq.learn import load_model

from test_cli import WORDS, write_corpus, write_glove

# kind -> (file name of the good input, argv with {bad} for the damaged copy)
COMMANDS = {
    "tsv": ("pairs.tsv", ["stats", "{bad}"]),
    "features_csv": ("features.csv", ["train", "--model", "decision_tree", "--features", "{bad}", "-o", "m.json"]),
    "npz": ("vectors.npz", ["train", "--model", "decision_tree", "--sparse", "{bad}", "-o", "m.json"]),
    "model_json": ("tree.json", ["eval", "--model", "{bad}", "--features", "features.csv"]),
    "tfidf_model": ("tfidf.json", ["tfidf-featurize", "pairs.tsv", "--model", "{bad}", "-o", "v.npz"]),
    "word2vec": ("vectors.bin", ["featurize", "pairs.tsv", "--w2v", "{bad}", "-o", "f.csv"]),
    "glove": ("vectors.txt", ["featurize", "pairs.tsv", "--glove", "{bad}", "-o", "f.csv"]),
    "config": ("config.json", ["stats", "pairs.tsv", "--config", "{bad}"]),
    "grid_spec": ("grid.json", ["grid", "--spec", "{bad}", "--features", "features.csv"]),
}


# the kinds whose saved state is damaged value by value, with the
# hyperparameters that keep them small
STATE_MODELS = {
    "knn": [],
    "random_forest": ["--param", "n_estimators=3", "--param", "max_depth=3", "--param", "min_samples_leaf=1"],
    "adaboost": ["--param", "n_estimators=4"],
    "xgb": ["--param", "n_estimators=4", "--param", "max_depth=2"],
}


def run_in(directory: Path, argv) -> tuple[int, str]:
    """Exit code and stderr of ``dupliq argv`` run in ``directory``."""
    err = io.StringIO()
    with contextlib.chdir(directory), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*argv, "--report", "report.json"])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One good file of every kind, in one directory."""
    d = tmp_path_factory.mktemp("inputs")
    write_corpus(d / "pairs.tsv", n=12)
    write_glove(d / "vectors.txt", dim=3)
    rng = np.random.default_rng(4)
    blob = f"{len(WORDS)} 3\n".encode()
    for word in WORDS:
        blob += word.encode() + b" " + rng.normal(size=3).astype("<f4").tobytes() + b"\n"
    (d / "vectors.bin").write_bytes(blob)
    (d / "config.json").write_text(json.dumps({"config_version": 1, "defaults": {"skip-bad-rows": False}}))
    (d / "grid.json").write_text(
        json.dumps([{"kind": "decision_tree", "hyperparameters": {"max_depth": 2, "min_samples_leaf": 1}}])
    )
    for argv in (
        ["featurize", "pairs.tsv", "--glove", "vectors.txt", "-o", "features.csv"],
        ["train", "--model", "decision_tree", "--features", "features.csv", "-o", "tree.json"],
        ["tfidf-fit", "pairs.tsv", "--analyzer", "word", "-o", "tfidf.json"],
        ["tfidf-featurize", "pairs.tsv", "--model", "tfidf.json", "-o", "vectors.npz"],
        *(
            ["train", "--model", kind, "--features", "features.csv", "-o", f"{kind}.json", *params]
            for kind, params in STATE_MODELS.items()
        ),
    ):
        assert run_in(d, argv) == (0, "")
    return d


STATE_VALUES = [math.nan, math.inf, -math.inf, 1e308, -0.5, 2.0, "abc", "0.5"]


def number_paths(node, path=()):
    """The key path of every number in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []
    return [found for key, value in items for found in number_paths(value, (*path, key))]


@st.composite
def damage(draw, blob: bytes) -> bytes:
    """``blob`` emptied, cut short, or with up to three bytes flipped."""
    how = draw(st.sampled_from(["empty", "truncate", "flip"]))
    if how == "empty" or not blob:
        return b""
    if how == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
    return bytes(out)


@pytest.mark.parametrize("kind", sorted(COMMANDS))
def test_damaged_input_exits_cleanly_and_names_its_file(inputs, kind):
    good, argv = COMMANDS[kind]
    blob = (inputs / good).read_bytes()
    bad = inputs / f"damaged-{good}"

    @settings(max_examples=60)
    @given(damage(blob))
    def check(damaged):
        bad.write_bytes(damaged)
        code, err = run_in(inputs, [str(bad) if a == "{bad}" else a for a in argv])
        assert code in (0, 1, 2), err
        if code != 0:
            assert str(bad) in err, err

    check()


@pytest.mark.parametrize("kind", sorted(STATE_MODELS))
def test_model_with_a_bad_state_value_exits_1_or_predicts_probabilities(inputs, kind):
    """``eval`` refuses the model naming its file, or runs and the model's
    probabilities are finite and in [0, 1]; no RuntimeWarning is raised."""
    good = json.loads((inputs / f"{kind}.json").read_text())
    bad = inputs / f"bad-{kind}.json"
    X = load_matrix(inputs / "features.csv").rows

    @settings(max_examples=60)
    @given(st.sampled_from(number_paths(good["state"])), st.sampled_from(STATE_VALUES))
    def check(path, value):
        doc = copy.deepcopy(good)
        node = doc["state"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        bad.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, err = run_in(inputs, ["eval", "--model", str(bad), "--features", "features.csv"])
            proba = load_model(bad).predict_proba(X) if code == 0 else None
        assert code in (0, 1), err
        if code == 1:
            assert str(bad) in err, err
        else:
            assert np.isfinite(proba).all() and ((proba >= 0) & (proba <= 1)).all(), (path, value)

    check()
