"""One measured process of a benchmark run.

``run.py`` starts this file in a fresh interpreter for every set-up sample
and for the timed run, with BLAS and OpenMP limited to one thread.  Set-up
time counts from the moment ``run.py`` started the process
(``--started``, a ``time.monotonic`` reading, which is system-wide on
Linux).  The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import checks  # noqa: E402  (imports tests/oracles.py)


class Workload:
    """A workload runs whole rounds of the same operations.

    ``run_round`` returns the latency of each operation it attempted and
    how many of them failed; a round's time is the sum of its latencies,
    so checks made between operations are not counted.  ``finish`` checks
    outputs after the timed part and returns ``(problems, test_accuracy)``.
    """

    min_rounds = 1
    max_rounds = 10_000

    def __init__(self, cfg: dict, work: Path):
        self.cfg, self.work = cfg, work

    def setup(self) -> None:
        pass

    def pair_table(self):
        raise NotImplementedError


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _sample(rng, n: int, k: int) -> list[int]:
    return sorted(int(i) for i in rng.choice(n, size=min(k, n), replace=False))


class _Reproduce(Workload):
    """``dupliq reproduce <table>``, one command per round."""

    table = ""

    def argv(self) -> list[str]:
        c = self.cfg
        return [
            "reproduce", self.table, "--tsv", str(self.work / "pairs.tsv"),
            "--test", str(c["test_fraction"]), "--seed", str(c["seed"]),
            "-o", str(self.work / f"{self.table}.report.json"),
        ]

    def run_round(self):
        from dupliq import cli

        t = time.perf_counter()
        code = _quiet(cli.main, self.argv())
        return [time.perf_counter() - t], int(code != 0)

    def pair_table(self):
        from dupliq import corpus

        return corpus.clean(corpus.load_pairs(self.work / "pairs.tsv"))

    def report_problems(self, kinds_that_must_win):
        """Row counts against the generator, accuracies against the majority."""
        import gen

        doc = json.loads((self.work / f"{self.table}.report.json").read_text())["results"]
        n = self.cfg["pairs"] - gen.n_short_rows(self.cfg["pairs"])
        problems = []
        expect_test = int(round(self.cfg["test_fraction"] * n))
        got = (doc["rows_used"], doc["train_rows"], doc["test_rows"])
        if got != (n, n - expect_test, expect_test):
            problems.append(f"report rows {got}, generator gives {(n, n - expect_test, expect_test)}")
        majority = checks.test_majority_rate(self.pair_table().labels, self.cfg["test_fraction"])
        results = doc["results"]
        tables = results.values() if self.table == "table7" else [results]
        accuracies = []
        for table in tables:
            for kind, metrics in table.items():
                accuracies.append(metrics["accuracy"])
                if kind in kinds_that_must_win and not metrics["accuracy"] > majority:
                    problems.append(f"{kind}: accuracy {metrics['accuracy']} <= majority {majority}")
        return problems, statistics.fmean(accuracies)


class Table5Reuse(_Reproduce):
    table = "table5"

    def setup(self):
        """Keep the feature matrices the timed command computes, so that
        the checks see the very rows its classifiers were trained on."""
        from dupliq import featmat

        extract = featmat.extract_matrix
        self.matrices = []

        def keep(table, *args, **kwargs):
            matrix = extract(table, *args, **kwargs)
            self.matrices.append((table, matrix))
            return matrix

        featmat.extract_matrix = keep

    def argv(self):
        return super().argv() + ["--w2v", str(self.work / "vectors.bin")]

    def run_round(self):
        self.matrices.clear()
        return super().run_round()

    def finish(self):
        kinds = () if self.cfg.get("smoke") else ("knn", "adaboost", "xgb", "gbm", "decision_tree", "random_forest", "extra_trees")
        problems, accuracy = self.report_problems(kinds)
        pairs = [p for table, _ in self.matrices for p in table.rows]
        rows = [row for _, matrix in self.matrices for row in matrix.rows]
        if sorted(p.row_id for p in pairs) != [p.row_id for p in self.pair_table().rows]:
            problems.append("the feature matrices do not cover the cleaned pairs exactly once")
        vectors = checks.read_word2vec(self.work / "vectors.bin")
        problems += _check_rows(pairs, vectors, self.cfg, rows.__getitem__)
        return problems, accuracy


def _check_rows(pairs, vectors, cfg, row_of) -> list[str]:
    """Oracle checks on a seeded sample of feature rows, plus pairs small
    enough for the exact transport oracle; ``row_of(i)`` is the program's
    row for ``pairs[i]``."""
    import numpy as np
    from dupliq.stopwords import ENGLISH_STOPWORDS as stopwords

    rng = np.random.default_rng(cfg["seed"])
    picks = _sample(rng, len(pairs), cfg["check_rows"])
    small = [
        i for i, p in enumerate(pairs)
        if 1 < checks.transport_cells(p.question1, p.question2, vectors, stopwords) <= checks.ORACLE_MAX_CELLS
    ]
    if small:
        picks += [small[i] for i in _sample(rng, len(small), cfg["check_oracle_rows"])]
    problems = []
    for i in sorted(set(picks)):
        p = pairs[i]
        row = [float(v) for v in row_of(i)]
        problems += checks.check_feature_row(p.question1, p.question2, row, vectors, stopwords)
    return problems


class Table7Sparse(_Reproduce):
    table = "table7"

    def argv(self):
        return super().argv() + ["--ngram-hi", str(self.cfg["char_ngram_hi"])]

    def finish(self):
        import numpy as np
        from dupliq import corpus, tfidf

        kinds = () if self.cfg.get("smoke") else ("knn", "xgb", "decision_tree")
        problems, accuracy = self.report_problems(kinds)
        train, test = corpus.stratified_split(self.pair_table(), self.cfg["test_fraction"], self.cfg["seed"])
        rng = np.random.default_rng(self.cfg["seed"])
        texts = [r.question1 for r in train] + [r.question2 for r in train]
        for analyzer, ngram in (("word", (1, 1)), ("char", (1, self.cfg["char_ngram_hi"]))):
            model = tfidf.fit(tfidf.fit_corpus([r.question1 for r in train], [r.question2 for r in train]),
                              analyzer=analyzer, ngram_range=ngram, max_features=50000)
            vector = checks.straight_tfidf(texts, analyzer, ngram, 50000)
            for split in (train, test):
                X = tfidf.stack([tfidf.pair_vector(model, r.question1, r.question2) for r in split])
                picks = _sample(rng, len(split), self.cfg["check_rows"])
                problems += checks.check_tfidf_rows(
                    X, model.vocabulary, [(i, (split[i].question1, split[i].question2)) for i in picks], vector
                )
        return problems, accuracy


class ScoreFresh(Workload):
    """A closed loop: one caller scores unseen pairs one at a time."""

    def setup(self):
        from dupliq import corpus, embed, learn, tfidf

        self.min_rounds = self.cfg["min_rounds"]

        self.pairs = corpus.load_pairs(self.work / "score.tsv").rows
        self.max_rounds = len(self.pairs) // self.cfg["round_pairs"]
        self.embeddings = embed.load_word2vec_binary(self.work / "vectors.bin")
        self.tfidf_model = tfidf.load_model(self.work / "char.tfidf.json")
        self.xgb = learn.load_model(self.work / "xgb.json")
        self.knn = learn.load_model(self.work / "knn.json")
        self.rows, self.vectors, self.p_xgb, self.p_knn = [], [], [], []

    def run_round(self):
        from dupliq import featmat, learn, tfidf

        start = len(self.rows)
        latencies = []
        clock = time.perf_counter
        for pair in self.pairs[start : start + self.cfg["round_pairs"]]:
            t = clock()
            row = featmat.extract_row(pair, self.embeddings).values
            vec = tfidf.stack([tfidf.pair_vector(self.tfidf_model, pair.question1, pair.question2)])
            p_xgb = learn.predict_proba(self.xgb, row[None, :])[0]
            p_knn = learn.predict_proba(self.knn, vec)[0]
            latencies.append(clock() - t)
            self.rows.append(row)
            self.vectors.append(vec)
            self.p_xgb.append(p_xgb)
            self.p_knn.append(p_knn)
        return latencies, 0

    def pair_table(self):
        from dupliq import corpus

        return corpus.PairTable(self.pairs[: self.min_rounds * self.cfg["round_pairs"]])

    def finish(self):
        import numpy as np
        import scipy.sparse as sp

        problems = []
        n = len(self.rows)
        batch_xgb = self.xgb.predict_proba(np.vstack(self.rows))
        batch_knn = self.knn.predict_proba(sp.vstack(self.vectors).tocsr())
        for name, one, batch in (("xgb", self.p_xgb, batch_xgb), ("knn", self.p_knn, batch_knn)):
            differ = np.flatnonzero(np.asarray(one) != batch)
            if len(differ):
                problems.append(f"{name}: {len(differ)} of {n} one-row probabilities differ from batch")
        labels = np.array([p.is_duplicate for p in self.pairs[:n]])
        scored = self.min_rounds * self.cfg["round_pairs"]
        accuracy = statistics.fmean(
            float(np.mean((np.asarray(p[:scored]) >= 0.5) == labels[:scored])) for p in (self.p_xgb, self.p_knn)
        )
        vectors = checks.read_word2vec(self.work / "vectors.bin")
        problems += _check_rows(self.pairs[:n], vectors, self.cfg, self.rows.__getitem__)
        return problems, accuracy


class NnPaperDims(Workload):
    """``dupliq nn-train`` for architectures 1-4 at the paper's dimensions."""

    def setup(self):
        import dupliq.neural  # noqa: F401  (cli imports it on first use)

        from dupliq import corpus

        self.rows = corpus.load_pairs(self.work / "pairs.tsv").rows
        train = self.rows[: self.cfg["samples"]]
        self.vocab = _build_vocab([r.question1 for r in train] + [r.question2 for r in train])

    def argv(self, arch: int) -> list[str]:
        c = self.cfg
        return [
            "nn-train", "--arch", str(arch), "--pairs", str(self.work / "pairs.tsv"),
            "--glove", str(self.work / "glove.txt"), "--vocab-size", str(len(self.vocab) + 1),
            "--samples", str(c["samples"]), "--epochs", "1", "--batch-size", str(c["batch_size"]),
            "--seed", str(c["seed"]), "-o", str(self.work / f"arch{arch}"),
            "--report", str(self.work / f"arch{arch}.report.json"),
        ]

    def run_round(self):
        from dupliq import cli

        latencies, failed = [], 0
        for arch in (1, 2, 3, 4):
            t = time.perf_counter()
            code = _quiet(cli.main, self.argv(arch))
            latencies.append(time.perf_counter() - t)
            if code != 0 or (arch >= 2 and self.frozen_problems(arch)):
                failed += 1
        return latencies, failed

    def frozen_problems(self, arch: int) -> list[str]:
        """Frozen embedding rows of in-vocabulary tokens must hold their
        pre-trained vectors; read straight from the saved weight files."""
        import numpy as np

        if not hasattr(self, "glove"):
            self.glove = checks.read_glove(self.work / "glove.txt")
        manifest = json.loads((self.work / f"arch{arch}.json").read_text())
        blob = np.fromfile(self.work / f"arch{arch}.bin", dtype="<f8")
        problems, offset = [], 0
        for param in manifest["params"]:
            size = int(np.prod(param["shape"]))
            if param["name"].endswith(".embedding.w") and not param["trainable"]:
                w = blob[offset : offset + size].reshape(param["shape"])
                wrong = [t for t, i in self.vocab.items() if t in self.glove and not np.array_equal(w[i], self.glove[t])]
                if wrong:
                    problems.append(f"arch {arch} {param['name']}: {len(wrong)} in-vocabulary rows differ from their vectors")
            offset += size
        return problems

    def pair_table(self):
        from dupliq import corpus

        return corpus.PairTable(self.rows[: self.cfg["samples"]])

    def finish(self):
        import numpy as np
        from dupliq import neural

        c = self.cfg
        held = self.rows[c["samples"] :]
        pos = [r for r in held if r.is_duplicate][: c["eval_pairs"] // 2]
        neg = [r for r in held if not r.is_duplicate][: c["eval_pairs"] // 2]
        evaluation = pos + neg
        y = np.array([r.is_duplicate for r in evaluation])
        x1 = _encode([r.question1 for r in evaluation], self.vocab, neural.DEFAULT_DIMS["seq_len"])
        x2 = _encode([r.question2 for r in evaluation], self.vocab, neural.DEFAULT_DIMS["seq_len"])
        problems, accuracies = [], []
        for arch in (1, 2, 3, 4):
            net = neural.load_network(self.work / f"arch{arch}")
            accuracies.append(float(np.mean((net.forward(x1, x2, mode="infer") >= 0.5) == y)))
            # one architecture per run, by seed: a check at these sizes
            # takes 3-14 s; batch norm needs a batch of 8 for clean differences
            if arch == 1 + c["seed"] % 4:
                b = slice(0, c["gradcheck_batch"])
                worst = neural.gradient_check(
                    net, x1[b], x2[b], y[b], max_coords_per_param=c["gradcheck_coords"], seed=c["seed"],
                    noise_floor=GRADCHECK_NOISE_FLOOR,
                )
                if not worst < GRADCHECK_TOL:
                    problems.append(f"arch {arch}: gradient check relative error {worst:.3e}")
                problems += _largest_gradients_problems(net, x1[b], x2[b], y[b], arch)
        return problems, statistics.fmean(accuracies)


# The loss of a batch of 8 at the paper's sizes takes ~2e8 multiply-adds.
# Float64 rounding of order sqrt(2e8) * 1.1e-16 ~ 2e-12 of a loss near 0.7,
# divided by the difference step 1e-5, makes differences up to ~1e-7 that
# carry no signal; above that floor, central differences agree with a
# correct backward pass to a relative 1e-4 (truncation is ~1e-10).
GRADCHECK_NOISE_FLOOR = 1e-7
GRADCHECK_TOL = 1e-4
# gradient_check passes a coordinate whose difference is below the floor, so
# it may compare nothing that carries signal.  The benchmark also compares,
# by its own central differences, the largest-gradient coordinates of the
# parameters with the largest gradients, each at least 0.1, a thousand times
# floor / tolerance.  Where the loss bends within the step (a max-pool or an
# activation switching), the two one-sided differences disagree and the
# central one is off by about half their gap; such a coordinate is skipped
# for the next.  At a step of 1e-6 the loss's rounding (~2e-12) moves a
# difference by ~2e-6, well under the tolerance at a gradient of 0.1.
GRADCHECK_COMPARED = 3
GRADCHECK_CANDIDATES = 8
GRADCHECK_MIN_GRAD = 0.1
GRADCHECK_STEP = 1e-6


def _largest_gradients_problems(net, x1, x2, y, arch) -> list[str]:
    """Compare backprop with central differences at the largest-gradient
    coordinate of the parameters whose largest gradient is largest, until
    GRADCHECK_COMPARED coordinates where the loss is smooth are compared."""
    import numpy as np
    from dupliq import neural

    y = np.asarray(y, dtype=np.float64)

    def loss():
        return neural.bce_loss(net.forward(x1, x2, mode="check"), y)[0]

    net.zero_grads()
    net.backward(neural.bce_loss(net.forward(x1, x2, mode="check"), y)[1])
    center = loss()
    params = sorted(net.trainable_parameters(), key=lambda p: -np.abs(p.grad).max())
    problems, compared = [], 0
    for param in params[:GRADCHECK_CANDIDATES]:
        flat, grad = param.value.ravel(), param.grad.ravel()
        c = int(np.argmax(np.abs(grad)))
        bp, original = float(grad[c]), flat[c]
        if not abs(bp) >= GRADCHECK_MIN_GRAD:
            break
        h = GRADCHECK_STEP * max(1.0, abs(original))
        flat[c] = original + h
        up = loss()
        flat[c] = original - h
        down = loss()
        flat[c] = original
        forward, backward = (up - center) / h, (center - down) / h
        if abs(forward - backward) > GRADCHECK_TOL * abs(bp):
            continue
        error = abs(bp - (up - down) / (2.0 * h)) / abs(bp)
        if not error < GRADCHECK_TOL:
            problems.append(f"arch {arch} {param.name}[{c}]: relative error {error:.3e} at gradient {bp:.3e}")
        compared += 1
        if compared == GRADCHECK_COMPARED:
            break
    if compared < GRADCHECK_COMPARED:
        problems.append(f"arch {arch}: {compared} smooth coordinates with gradients above {GRADCHECK_MIN_GRAD}, not {GRADCHECK_COMPARED}")
    return problems


def _normalized_tokens(text: str) -> list[str]:
    return "".join(c if c.isalnum() else " " for c in text.lower()).split()


def _build_vocab(texts) -> dict[str, int]:
    """Token to index over normalized text, in order of first use; 0 pads."""
    vocab: dict[str, int] = {}
    for text in texts:
        for token in _normalized_tokens(text):
            vocab.setdefault(token, len(vocab) + 1)
    return vocab


def _encode(texts, vocab, seq_len):
    import numpy as np

    out = np.zeros((len(texts), seq_len), dtype=np.int64)
    for i, text in enumerate(texts):
        ids = [vocab[t] for t in _normalized_tokens(text) if t in vocab][:seq_len]
        out[i, : len(ids)] = ids
    return out


def prepare_score_models(work: Path, seed: int) -> None:
    """Train the two models ``score_fresh`` loads, with the program's CLI."""
    from dupliq import cli

    w = lambda name: str(work / name)  # noqa: E731
    for argv in (
        ["featurize", w("train.tsv"), "--w2v", w("vectors.bin"), "-o", w("train.csv")],
        ["train", "--model", "xgb", "--features", w("train.csv"), "--seed", str(seed), "-o", w("xgb.json")],
        ["tfidf-fit", w("train.tsv"), "--analyzer", "char", "-o", w("char.tfidf.json")],
        ["tfidf-featurize", w("train.tsv"), "--model", w("char.tfidf.json"), "-o", w("train.char.npz")],
        ["train", "--model", "knn", "--sparse", w("train.char.npz"), "-o", w("knn.json")],
    ):
        code = _quiet(cli.main, argv + ["--report", w(f"{argv[0]}.report.json")])
        if code != 0:
            raise RuntimeError(f"dupliq {argv[0]} exited with {code}")


WORKLOADS = {
    "table5_reuse": Table5Reuse,
    "table7_sparse": Table7Sparse,
    "score_fresh": ScoreFresh,
    "nn_paper_dims": NnPaperDims,
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--config", required=True, help="workload settings as JSON")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--started", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", action="store_true", help="set up, report set-up time, exit")
    ap.add_argument("--prepare", action="store_true", help="train the models score_fresh loads")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()

    import dupliq.cli  # noqa: F401  (the program's own import is part of set-up)

    if args.prepare:
        prepare_score_models(args.work, json.loads(args.config)["seed"])
        args.out.write_text("{}")
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](json.loads(args.config), args.work)
    workload.setup()
    setup_s = time.monotonic() - args.started
    if args.probe:
        args.out.write_text(json.dumps({"setup_s": setup_s}))
        return 0

    rounds, latencies, failed, counts = [], [], 0, {}
    start = time.perf_counter()
    while True:
        lat, bad = workload.run_round()
        rounds.append(sum(lat))
        latencies += lat
        failed += bad
        if tracer is not None and len(rounds) == workload.min_rounds:
            counts = dict(tracer.counts)
        elapsed = time.perf_counter() - start
        if len(rounds) >= workload.max_rounds:
            break
        if len(rounds) >= workload.min_rounds and elapsed + statistics.median(rounds) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    problems, accuracy = workload.finish()
    result = {
        "setup_s": setup_s,
        "run_s": statistics.median(rounds),
        "rounds": len(rounds),
        "latencies": latencies,
        "attempted": len(latencies),
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "test_accuracy": accuracy,
        "problems": problems,
    }
    if tracer is not None:
        from dupliq import corpus

        from tracer import layer_metrics

        occurrence = corpus.corpus_stats(workload.pair_table()).question_occurrence
        slots = sum(occurrence.values()) / len(occurrence)
        result["layers"] = layer_metrics(tracer, counts, slots, result["run_s"])
        tracer.write(args.out.with_suffix(".spans.jsonl"))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
