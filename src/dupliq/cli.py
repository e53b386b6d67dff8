"""The ``dupliq`` command line: the full pipeline as subcommands.

Every subcommand prints a human-readable summary and writes a JSON report
(``--report``, defaulting next to the primary output).  Reports carry the
package version and the fully resolved configuration and contain no
timestamps, so a rerun with the same seed is byte-identical.

Exit codes: 0 success, 1 contract error (bad flags, bad data rows,
validation failures), 2 I/O error (missing or unreadable files).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import __version__, corpus, embed, featmat, sparse_io, tfidf
from . import learn as learn_mod
from ._files import read_json
from .embed import EmbeddingTable, load_glove_text, load_word2vec_binary
from .learn import ClassifierSpec

# Published accuracy/F1 reference values the reproduce tables compare against.
REFERENCE_RESULTS = {
    "table5": {
        "knn": (0.7275, 0.7031),
        "adaboost": (0.7041, 0.6936),
        "xgb": (0.7417, 0.7326),
        "gbm": (0.7271, 0.7176),
        "decision_tree": (0.7054, 0.6992),
        "random_forest": (0.7099, 0.7016),
        "extra_trees": (0.7039, 0.6849),
    },
    "table6": {
        "knn": (0.7311, 0.7076),
        "adaboost": (0.7048, 0.6938),
        "xgb": (0.7431, 0.7349),
        "gbm": (0.7289, 0.7196),
        "decision_tree": (0.7054, 0.6992),
        "random_forest": (0.7085, 0.7021),
        "extra_trees": (0.7069, 0.6914),
    },
    "table7": {
        "word": {
            "knn": (0.7513, 0.7359),
            "adaboost": (0.6883, 0.6076),
            "xgb": (0.7881, 0.7596),
            "gbm": (0.6756, 0.5339),
            "decision_tree": (0.6677, 0.5651),
            "random_forest": (0.6284, 0.3866),
            "extra_trees": (0.6281, 0.3864),
        },
        "char": {
            "knn": (0.7845, 0.7543),
            "adaboost": (0.6871, 0.6201),
            "xgb": (0.8244, 0.8044),
            "gbm": (0.6951, 0.6009),
            "decision_tree": (0.6672, 0.5767),
            "random_forest": (0.6484, 0.4066),
            "extra_trees": (0.6581, 0.4059),
        },
    },
}

class CliError(Exception):
    """Contract violation surfaced to the user with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _describe_version() -> str:
    here = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=here,
            capture_output=True,
            encoding="utf-8",
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"{__version__}+{out.stdout.strip()}"
    except OSError:
        pass
    return __version__


def _count(text: str, least: int = 1) -> int:
    """An argparse type: a whole number of at least ``least``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def _vocab_size(text: str) -> int:
    """An argparse type: a vocabulary size, which holds the padding index
    and at least one token."""
    return _count(text, least=2)


def _json_ready(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _write_report(args, command: str, payload: dict) -> None:
    report_path = getattr(args, "report", None)
    if report_path is None:
        primary = getattr(args, "output", None)
        base = Path(primary).name if primary else command
        report_path = f"{base}.report.json"
    config = {
        k: _json_ready(v)
        for k, v in vars(args).items()
        if k not in ("func", "report") and not k.startswith("_")
    }
    doc = {
        "version": _describe_version(),
        "command": command,
        "config": config,
        "results": _json_ready(payload),
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    print(f"report written to {report_path}")


def _load_embeddings(args, vocab_filter=None) -> EmbeddingTable:
    if getattr(args, "glove", None):
        return load_glove_text(args.glove, vocab_filter=vocab_filter)
    if getattr(args, "w2v", None):
        return load_word2vec_binary(
            args.w2v,
            max_words=getattr(args, "max_words", None),
            vocab_filter=vocab_filter,
        )
    raise CliError("an embedding file is required: pass --glove or --w2v")


def _feature_embeddings(args, table) -> EmbeddingTable:
    """The embeddings of ``table``'s words, for the 28 features, whose
    moments need vectors of at least 2 components."""
    embeddings = _load_embeddings(args, vocab_filter=embed.corpus_vocabulary(table))
    if embeddings.dim < 2:
        path = getattr(args, "glove", None) or args.w2v
        raise CliError(f"{path}: {embeddings.dim}-component vectors; the features need at least 2 components")
    return embeddings


def _load_features(args):
    """Matrix, labels, column names (None for a sparse file stored without
    them) and path of the feature input, whose labels must be 0 or 1 and
    whose values must be finite."""
    if getattr(args, "sparse", None):
        path = args.sparse
        X, y, names = sparse_io.load_sparse_features(path)
    elif getattr(args, "features", None):
        path = args.features
        m = featmat.load_matrix(path)
        X, y, names = m.rows, m.labels, m.column_names
    else:
        raise CliError("feature input required: pass --features CSV or --sparse NPZ")
    if not np.isin(y, (0, 1)).all():
        raise CliError(f"{path}: labels must be 0 or 1")
    if not np.isfinite(X.data if sp.issparse(X) else X).all():
        raise CliError(f"{path}: features contain NaN or infinity")
    return X, y, names, path


# ------------------------------------------------------------ subcommands

def cmd_stats(args):
    table = corpus.load_pairs(args.tsv, skip_bad_rows=args.skip_bad_rows)
    stats = corpus.corpus_stats(table)
    rows = [
        ("total pairs", stats.total_pairs),
        ("positives", stats.positives),
        ("negatives", stats.negatives),
        ("avg len q1", round(stats.avg_len_q1, 5)),
        ("avg len q2", round(stats.avg_len_q2, 5)),
        ("sum len q1", stats.sum_len_q1),
        ("sum len q2", stats.sum_len_q2),
        ("max len q1", stats.max_len_q1),
        ("max len q2", stats.max_len_q2),
        ("q1 length <=5", stats.short_q1),
        ("q2 length <=5", stats.short_q2),
    ]
    for name, value in rows:
        print(f"{name:16s} {value}")
    histogram: dict[int, int] = {}
    for count in stats.question_occurrence.values():
        histogram[count] = histogram.get(count, 0) + 1
    payload = {name.replace(" ", "_"): value for name, value in rows}
    payload["occurrence_histogram"] = {str(k): v for k, v in sorted(histogram.items())}
    _write_report(args, "stats", payload)
    return 0


def cmd_clean(args):
    table = corpus.load_pairs(args.tsv, skip_bad_rows=args.skip_bad_rows)
    cleaned = corpus.clean(table)
    corpus.save_pairs(cleaned, args.output)
    dropped = len(table) - len(cleaned)
    print(f"{len(table)} rows -> {len(cleaned)} rows ({dropped} dropped)")
    _write_report(
        args,
        "clean",
        {"rows_in": len(table), "rows_out": len(cleaned), "rows_dropped": dropped},
    )
    return 0


def cmd_split(args):
    table = corpus.load_pairs(args.tsv)
    train, test = corpus.stratified_split(table, args.test, args.seed)
    corpus.save_pairs(train, args.o_train)
    corpus.save_pairs(test, args.o_test)
    payload = {
        "train_rows": len(train),
        "test_rows": len(test),
        "train_positive_rate": float(train.labels.mean()),
        "test_positive_rate": float(test.labels.mean()),
    }
    print(
        f"train {payload['train_rows']} rows ({payload['train_positive_rate']:.4f} positive), "
        f"test {payload['test_rows']} rows ({payload['test_positive_rate']:.4f} positive)"
    )
    _write_report(args, "split", payload)
    return 0


def cmd_featurize(args):
    table = corpus.load_pairs(args.tsv)
    cleaned = corpus.clean(table)
    dropped = len(table) - len(cleaned)
    if dropped:
        print(f"dropped {dropped} too-short rows before extraction")
    embeddings = _feature_embeddings(args, cleaned)
    matrix = featmat.extract_matrix(cleaned, embeddings)
    if args.drop_paper_eight:
        matrix = featmat.drop_features(matrix, featmat.DEFAULT_DROP_LIST)
    featmat.save_matrix(matrix, args.output)
    print(f"wrote {len(matrix)} rows x {len(matrix.column_names)} features")
    _write_report(
        args,
        "featurize",
        {
            "rows": len(matrix),
            "columns": matrix.column_names,
            "rows_dropped_by_clean": dropped,
        },
    )
    return 0


def cmd_tfidf_fit(args):
    table = corpus.load_pairs(args.tsv)
    docs = tfidf.fit_corpus(
        [r.question1 for r in table], [r.question2 for r in table]
    )
    model = tfidf.fit(
        docs,
        analyzer=args.analyzer,
        ngram_range=(args.ngram_lo, args.ngram_hi),
        max_features=args.max_features,
    )
    tfidf.save_model(model, args.output)
    print(f"fitted {args.analyzer} vocabulary of {model.dim} terms from {len(docs)} texts")
    _write_report(
        args,
        "tfidf-fit",
        {"documents": len(docs), "vocabulary_size": model.dim},
    )
    return 0


def _pair_vectors(model, table):
    return tfidf.pair_vectors(
        model, [r.question1 for r in table], [r.question2 for r in table]
    )


def cmd_tfidf_featurize(args):
    table = corpus.load_pairs(args.tsv)
    model = tfidf.load_model(args.model)
    if not len(table):
        raise CliError(f"{args.tsv}: no pairs to vectorize")
    X = _pair_vectors(model, table)
    sparse_io.save_sparse_features(
        args.output, X, table.labels, column_names=tfidf.pair_column_names(model)
    )
    print(f"wrote {X.shape[0]} x {X.shape[1]} sparse pair vectors")
    _write_report(
        args,
        "tfidf-featurize",
        {"rows": X.shape[0], "width": X.shape[1], "nnz": int(X.nnz)},
    )
    return 0


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise CliError(f"--param expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        out[key] = value
    return out


def cmd_train(args):
    X, y, names, data_path = _load_features(args)
    hp = _parse_params(args.param)
    hp.setdefault("seed", args.seed)
    spec = ClassifierSpec(args.model, hp)
    spec.resolved()  # a fault in the hyperparameters is not the data's
    try:
        model = learn_mod.train(spec, X, y)
    except ValueError as exc:
        raise CliError(f"{data_path}: {exc}") from None
    learn_mod.save_model(model, args.output, train_data_path=data_path, column_names=names)
    metrics = learn_mod.evaluate(model, X, y)
    print(f"trained {args.model}: train accuracy {metrics.accuracy:.4f}")
    _write_report(
        args,
        "train",
        {"spec": spec.to_dict(), "train_metrics": metrics.as_dict()},
    )
    return 0


def _check_columns(args, model, names, data_path) -> None:
    """A model that records its training columns accepts only an input with
    the same columns in the same order; an input or a model without names
    is taken as it is."""
    if model.column_names is None or names is None or model.column_names == names:
        return
    if len(names) != len(model.column_names):
        raise CliError(
            f"{data_path} has {len(names)} columns, but {args.model} was trained on "
            f"{len(model.column_names)}"
        )
    i = next(i for i, (a, b) in enumerate(zip(model.column_names, names)) if a != b)
    raise CliError(
        f"column {i} of {data_path} is {names[i]!r}, but {args.model} was trained "
        f"with {model.column_names[i]!r} there"
    )


def cmd_eval(args):
    model = learn_mod.load_model(args.model)
    X, y, names, data_path = _load_features(args)
    _check_columns(args, model, names, data_path)
    metrics = learn_mod.evaluate(model, X, y)
    print(
        f"{model.kind}: accuracy {metrics.accuracy:.4f}  precision {metrics.precision:.4f}  "
        f"recall {metrics.recall:.4f}  f1 {metrics.f1:.4f}  log_loss {metrics.log_loss:.4f}"
    )
    _write_report(args, "eval", {"kind": model.kind, "metrics": metrics.as_dict()})
    return 0


def cmd_importance(args):
    model = learn_mod.load_model(args.model)
    X, y, names, data_path = _load_features(args)
    _check_columns(args, model, names, data_path)
    report = learn_mod.feature_importance(
        model, X, y, feature_names=names, n_repeats=args.repeats, seed=args.seed
    )
    print(f"method: {report.method}")
    for name, weight in report.ranked[: args.top]:
        print(f"{name:28s} {weight:.6f}")
    _write_report(
        args,
        "importance",
        {"method": report.method, "ranked": report.ranked},
    )
    return 0


def cmd_grid(args):
    entries = read_json(args.spec)
    if not isinstance(entries, list):
        raise CliError(f"{args.spec}: a grid spec is a JSON list of {{kind, hyperparameters}} objects")
    try:
        grid = [ClassifierSpec.from_dict(e) for e in entries]
    except ValueError as exc:
        raise CliError(f"{args.spec}: {exc}") from None
    X, y, _names, _path = _load_features(args)
    best, table = learn_mod.grid_search(
        grid, X, y, val_fraction=args.val_fraction, seed=args.seed
    )
    for row in table:
        print(f"{row['spec']['kind']:14s} {row['spec']['hyperparameters']} -> {row['val_accuracy']:.4f}")
    print(f"best: {best.kind} {best.hyperparameters}")
    _write_report(args, "grid", {"best": best.to_dict(), "table": table})
    return 0


# ----------------------------------------------------------- neural cmds

TOY_DIMS = {
    "seq_len": 6,
    "embed_dim": 8,
    "lstm_units": 12,
    "dense_units": 16,
    "conv_filters": 8,
    "conv_kernel": 3,
    "dropout": 0.2,
}


def _build_net(args, vocab_index=None):
    """The architecture of ``args``; without ``--toy`` its frozen branches
    hold the embedding rows of ``vocab_index``'s words, with ``--toy``
    normal draws."""
    from .neural import build_architecture

    if args.toy:
        vocab_size = 31 if args.vocab_size is None else args.vocab_size
        frozen = None
        if args.arch >= 2:
            rng = np.random.default_rng(args.seed)
            dim = TOY_DIMS["embed_dim"]
            frozen = np.vstack([np.zeros((1, dim)), rng.normal(size=(vocab_size - 1, dim))])
        return build_architecture(
            args.arch, vocab_size, frozen=frozen, toy_dims=TOY_DIMS, seed=args.seed
        )
    if args.vocab_size is None:
        raise CliError("--vocab-size is required without --toy")
    # the vocabulary must fit --vocab-size with the padding index
    if vocab_index is not None and len(vocab_index) + 1 > args.vocab_size:
        raise CliError(f"--vocab-size {args.vocab_size} too small for {len(vocab_index)} tokens")
    if args.arch >= 2 and vocab_index is None:
        raise CliError(
            f"architecture {args.arch} needs --pairs without --toy: "
            "the words of its questions fill the frozen embedding rows"
        )
    frozen = None
    if args.arch >= 2:
        # the vocabulary is lowercased, so the lookup's lowercase fallback
        # needs no other form of its words
        table = _load_embeddings(args, vocab_filter=set(vocab_index))
        frozen = embed.embedding_matrix_from_table(vocab_index, table, args.vocab_size)
    return build_architecture(args.arch, args.vocab_size, frozen=frozen, seed=args.seed)


def _pairs_vocab(args, limit=None):
    """The first ``limit`` rows of ``--pairs`` (all of them by default) and
    the vocabulary of their questions."""
    from .neural import build_vocab

    rows = corpus.load_pairs(args.pairs).rows[:limit]
    return rows, build_vocab([r.question1 for r in rows] + [r.question2 for r in rows])


def _net_of_args(args):
    """The network ``nn-build`` and ``nn-gradcheck`` make: its vocabulary,
    when there is one, comes from every row of ``--pairs``."""
    vocab = _pairs_vocab(args)[1] if args.pairs and not args.toy else None
    return _build_net(args, vocab)


def cmd_nn_build(args):
    from .neural import save_network

    net = _net_of_args(args)
    save_network(net, args.output)
    print(
        f"architecture {args.arch}: {len(net.branches)} branches, "
        f"{net.num_params()} trainable parameters"
    )
    _write_report(
        args,
        "nn-build",
        {
            "arch": args.arch,
            "branches": len(net.branches),
            "trainable_parameters": net.num_params(),
            "total_parameters": net.num_params(trainable_only=False),
        },
    )
    return 0


def cmd_nn_train(args):
    from .neural import TrainConfig, encode, make_toy_pairs, save_network, train_network

    if args.toy:
        net = _build_net(args)
        x1, x2, y = make_toy_pairs(
            args.samples, vocab_size=net.vocab_size, seq_len=net.seq_len, seed=args.seed
        )
    else:
        if not args.pairs:
            raise CliError("pass --pairs TSV or use --toy")
        rows, vocab = _pairs_vocab(args, args.samples)
        net = _build_net(args, vocab)
        x1 = encode([r.question1 for r in rows], vocab, net.seq_len)
        x2 = encode([r.question2 for r in rows], vocab, net.seq_len)
        y = np.array([r.is_duplicate for r in rows])
    config = TrainConfig(
        batch_size=args.batch_size,
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        seed=args.seed,
    )
    history = train_network(net, x1, x2, y, config)
    save_network(net, args.output)
    print(
        f"epoch {len(history.loss)}: loss {history.loss[-1]:.4f} "
        f"accuracy {history.accuracy[-1]:.4f}"
    )
    _write_report(
        args,
        "nn-train",
        {
            "epochs": len(history.loss),
            "loss": history.loss,
            "accuracy": history.accuracy,
            "final_accuracy": history.accuracy[-1],
        },
    )
    return 0


def cmd_nn_gradcheck(args):
    from .neural import gradient_check

    net = _net_of_args(args)
    rng = np.random.default_rng(args.seed)
    x1 = rng.integers(1, net.vocab_size, size=(args.batch_size, net.seq_len))
    x2 = rng.integers(1, net.vocab_size, size=(args.batch_size, net.seq_len))
    y = rng.integers(0, 2, size=args.batch_size).astype(float)
    worst = gradient_check(net, x1, x2, y, max_coords_per_param=args.coords, seed=args.seed)
    print(f"architecture {args.arch}: max relative gradient error {worst:.3e}")
    _write_report(args, "nn-gradcheck", {"arch": args.arch, "max_relative_error": worst})
    return 0


# ------------------------------------------------------------- reproduce

def _subsample(table, size, seed):
    if size is None or size >= len(table):
        return table
    keep_fraction = size / len(table)
    _, idx = corpus.stratified_indices(table.labels, keep_fraction, seed)
    return corpus.PairTable(tuple(table.rows[i] for i in idx))


def _metrics_table(rows, reference):
    header = f"{'classifier':16s} {'acc':>8s} {'f1':>8s} {'ref acc':>8s} {'ref f1':>8s}"
    lines = [header, "-" * len(header)]
    for kind, metrics in rows:
        ref_acc, ref_f1 = reference.get(kind, (float('nan'), float('nan')))
        lines.append(
            f"{kind:16s} {metrics.accuracy:8.4f} {metrics.f1:8.4f} "
            f"{ref_acc:8.4f} {ref_f1:8.4f}"
        )
    return "\n".join(lines)


def _run_kinds(kinds, X_train, y_train, X_test, y_test, seed):
    rows = []
    for kind in kinds:
        spec = ClassifierSpec(kind, {"seed": seed})
        model = learn_mod.train(spec, X_train, y_train)
        rows.append((kind, learn_mod.evaluate(model, X_test, y_test)))
    return rows


def cmd_reproduce(args):
    kinds = args.kinds.split(",") if args.kinds else list(learn_mod.KINDS)
    unknown = set(kinds) - set(learn_mod.KINDS)
    if unknown:
        raise CliError(f"unknown classifier kinds: {sorted(unknown)}")
    table = corpus.load_pairs(args.tsv)
    cleaned = corpus.clean(table)
    sampled = _subsample(cleaned, args.sample, args.seed)
    train_t, test_t = corpus.stratified_split(sampled, args.test, args.seed)

    payload: dict = {"rows_used": len(sampled), "train_rows": len(train_t), "test_rows": len(test_t)}

    if args.table in ("table5", "table6"):
        embeddings = _feature_embeddings(args, sampled)
        train_m = featmat.extract_matrix(train_t, embeddings)
        test_m = featmat.extract_matrix(test_t, embeddings)
        if args.table == "table6":
            train_m = featmat.drop_features(train_m, featmat.DEFAULT_DROP_LIST)
            test_m = featmat.drop_features(test_m, featmat.DEFAULT_DROP_LIST)
        rows = _run_kinds(kinds, train_m.rows, train_m.labels, test_m.rows, test_m.labels, args.seed)
        print(_metrics_table(rows, REFERENCE_RESULTS[args.table]))
        payload["results"] = {k: m.as_dict() for k, m in rows}
    else:
        payload["results"] = {}
        for analyzer in ("word", "char"):
            ngram_range = (1, 1) if analyzer == "word" else (args.ngram_lo, args.ngram_hi)
            docs = tfidf.fit_corpus(
                [r.question1 for r in train_t], [r.question2 for r in train_t]
            )
            model = tfidf.fit(
                docs,
                analyzer=analyzer,
                ngram_range=ngram_range,
                max_features=args.max_features,
            )
            X_train = _pair_vectors(model, train_t)
            X_test = _pair_vectors(model, test_t)
            rows = _run_kinds(kinds, X_train, train_t.labels, X_test, test_t.labels, args.seed)
            print(f"\n{analyzer}-level tf-idf")
            print(_metrics_table(rows, REFERENCE_RESULTS["table7"][analyzer]))
            payload["results"][analyzer] = {k: m.as_dict() for k, m in rows}

    _write_report(args, f"reproduce-{args.table}", payload)
    return 0


# ------------------------------------------------------------------ main

CONFIG_VERSION = 1


def _load_config_defaults(path: str) -> dict:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise CliError(f"{path}: a config file holds a JSON object, not {type(doc).__name__}")
    if doc.get("config_version") != CONFIG_VERSION:
        raise CliError(f"{path}: unsupported config_version")
    defaults = doc.get("defaults", {})
    if not isinstance(defaults, dict):
        raise CliError(f"{path}: 'defaults' must be an object")
    return {k.replace("-", "_"): v for k, v in defaults.items()}


def _config_value(action, value):
    """A config file's ``value`` for ``action``'s flag, checked and
    converted as the flag's value on the command line would be; raises
    ValueError saying what the flag takes."""
    if isinstance(action, argparse._StoreTrueAction):
        if not isinstance(value, bool):
            raise ValueError("must be true or false")
        return value
    if isinstance(action, argparse._AppendAction):
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise ValueError("must be a list of strings")
        return value
    if action.type is None:
        if not isinstance(value, str):
            raise ValueError("must be a string")
    elif isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError("must be a string or a number")
    else:
        try:
            value = action.type(str(value))
        except argparse.ArgumentTypeError as exc:
            raise ValueError(str(exc)) from None
        except ValueError:
            raise ValueError(f"invalid {action.type.__name__} value: {value!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"must be one of {', '.join(map(str, action.choices))}")
    return value


def build_parser(config_defaults: dict | None = None, config_path: str | None = None):
    parser = _Parser(prog="dupliq", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = []

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--report", help="path for the JSON report")
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        subparsers.append(p)
        return p

    p = add("stats", cmd_stats, help="dataset statistics")
    p.add_argument("tsv")
    p.add_argument("--skip-bad-rows", action="store_true")

    p = add("clean", cmd_clean, help="drop too-short questions")
    p.add_argument("tsv")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--skip-bad-rows", action="store_true")

    p = add("split", cmd_split, help="stratified train/test split")
    p.add_argument("tsv")
    p.add_argument("--test", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o-train", "--o-train", dest="o_train", required=True)
    p.add_argument("-o-test", "--o-test", dest="o_test", required=True)

    p = add("featurize", cmd_featurize, help="extract the 28-feature matrix")
    p.add_argument("tsv")
    p.add_argument("--glove")
    p.add_argument("--w2v")
    p.add_argument("--max-words", type=_count, help="cap words read from --w2v")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--drop-paper-eight", action="store_true",
                   help="drop the eight lowest-importance features")

    p = add("tfidf-fit", cmd_tfidf_fit, help="fit a tf-idf vocabulary")
    p.add_argument("tsv")
    p.add_argument("--analyzer", choices=["word", "char"], default="char")
    p.add_argument("--ngram-lo", type=_count, default=1)
    p.add_argument("--ngram-hi", type=_count, default=3)
    p.add_argument("--max-features", type=_count, default=50000)
    p.add_argument("-o", "--output", required=True)

    p = add("tfidf-featurize", cmd_tfidf_featurize, help="pair vectors from a fitted model")
    p.add_argument("tsv")
    p.add_argument("--model", required=True)
    p.add_argument("-o", "--output", required=True)

    p = add("train", cmd_train, help="train a classifier")
    p.add_argument("--model", required=True, choices=learn_mod.KINDS)
    p.add_argument("--features")
    p.add_argument("--sparse")
    p.add_argument(
        "--param",
        action="append",
        help="hyperparameter key=value, the value read as JSON; names and values are checked",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)

    p = add("eval", cmd_eval, help="evaluate a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--features")
    p.add_argument("--sparse")

    p = add("importance", cmd_importance, help="feature importance report")
    p.add_argument("--model", required=True)
    p.add_argument("--features")
    p.add_argument("--sparse")
    p.add_argument("--repeats", type=_count, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", type=_count, default=28)

    p = add("grid", cmd_grid, help="grid search over classifier specs")
    p.add_argument("--spec", required=True, help="JSON list of {kind, hyperparameters}")
    p.add_argument("--features")
    p.add_argument("--sparse")
    p.add_argument("--val-fraction", type=float, default=0.10)
    p.add_argument("--seed", type=int, default=0)

    def add_nn(name, func, **kwargs):
        p = add(name, func, **kwargs)
        p.add_argument("--arch", type=int, required=True, choices=[1, 2, 3, 4])
        p.add_argument("--toy", action="store_true", help="small dimensions, synthetic embeddings")
        p.add_argument("--vocab-size", type=_vocab_size)
        p.add_argument("--glove")
        p.add_argument("--w2v")
        p.add_argument(
            "--pairs", help="pairs TSV whose questions give the vocabulary (nn-train trains on them)"
        )
        p.add_argument("--seed", type=int, default=0)
        return p

    p = add_nn("nn-build", cmd_nn_build, help="build and save an architecture")
    p.add_argument("-o", "--output", required=True)

    p = add_nn("nn-train", cmd_nn_train, help="train at toy scale")
    p.add_argument("--samples", type=_count, default=200)
    p.add_argument("--epochs", type=_count, default=150)
    p.add_argument("--batch-size", type=_count, default=300)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("-o", "--output", required=True)

    p = add_nn("nn-gradcheck", cmd_nn_gradcheck, help="finite-difference gradient check")
    p.add_argument("--batch-size", type=_count, default=6)
    p.add_argument("--coords", type=_count, default=4)

    p = add("reproduce", cmd_reproduce, help="run a full pipeline against reference values")
    p.add_argument("table", choices=["table5", "table6", "table7"])
    p.add_argument("--tsv", required=True)
    p.add_argument("--glove")
    p.add_argument("--w2v")
    p.add_argument("--max-words", type=_count)
    p.add_argument("--sample", type=_count)
    p.add_argument("--test", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kinds", help="comma-separated subset of classifiers")
    p.add_argument("--ngram-lo", type=_count, default=1)
    p.add_argument("--ngram-hi", type=_count, default=3)
    p.add_argument("--max-features", type=_count, default=50000)
    p.add_argument("-o", dest="report")

    for p in subparsers:
        for action in p._actions:
            if action.option_strings and action.dest in (config_defaults or {}):
                value = config_defaults[action.dest]
                try:
                    action.default = _config_value(action, value)
                except ValueError as exc:
                    # main raises it if the command runs with this default
                    action.default = CliError(f"{config_path}: {action.dest}={value!r}: {exc}")
    return parser


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    try:
        # argparse finds the config path in every spelling it accepts
        # (--config PATH, --config=PATH, --conf PATH); the file's defaults
        # then go into a fresh parser
        args = build_parser().parse_args(raw)
        if args.config is not None:
            args = build_parser(_load_config_defaults(args.config), args.config).parse_args(raw)
        for value in vars(args).values():
            if isinstance(value, CliError):
                raise value
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (corpus.RowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
