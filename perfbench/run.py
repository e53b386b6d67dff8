"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload table5_reuse --seed 1 --seconds 15 --trace 0

Run from the root of a checkout of the repository.  The run generates its
inputs from ``--seed`` under ``perfbench/_work/``, then starts
``worker.py`` in fresh interpreters with BLAS and OpenMP limited to one
thread: a few set-up probes, then the timed run, which repeats whole rounds
of the workload for about ``--seconds`` and checks the program's outputs.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics, or with ``--trace 1`` the per-layer metrics
of a traced run.  Every run also appends its figures, ``nproc`` and the
load average at its start to ``perfbench/_work/runs.jsonl``.
``--smoke`` shrinks every input so that a run takes seconds.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from tracer import metric_units  # noqa: E402

WORKLOADS = ("table5_reuse", "table7_sparse", "score_fresh", "nn_paper_dims")
SIZES = {
    "full": {
        "table5_reuse": {"pairs": 800, "test_fraction": 0.5, "check_rows": 8, "check_oracle_rows": 4},
        "table7_sparse": {"pairs": 360, "test_fraction": 0.58, "char_ngram_hi": 2, "check_rows": 6},
        "score_fresh": {
            "train_pairs": 150, "score_pairs": 2500, "round_pairs": 100, "min_rounds": 10,
            "check_rows": 4, "check_oracle_rows": 3,
        },
        "nn_paper_dims": {
            "pairs": 400, "samples": 32, "batch_size": 16, "eval_pairs": 60,
            "gradcheck_batch": 8, "gradcheck_coords": 1,
        },
    },
    "smoke": {
        "table5_reuse": {"pairs": 60, "test_fraction": 0.5, "check_rows": 2, "check_oracle_rows": 1},
        "table7_sparse": {"pairs": 40, "test_fraction": 0.5, "char_ngram_hi": 2, "check_rows": 2},
        "score_fresh": {
            "train_pairs": 60, "score_pairs": 40, "round_pairs": 10, "min_rounds": 2,
            "check_rows": 2, "check_oracle_rows": 1,
        },
        "nn_paper_dims": {
            "pairs": 60, "samples": 4, "batch_size": 4, "eval_pairs": 8,
            "gradcheck_batch": 8, "gradcheck_coords": 1,
        },
    },
}
SETUP_PROBES = 2  # set-up samples besides the timed worker's own
CHILD_TIMEOUT_S = 150


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def make_inputs(workload: str, seed: int, cfg: dict, work: Path) -> None:
    if workload != "score_fresh":
        gen.write_inputs(work, seed, cfg["pairs"], reuse=True)
        return
    rows, vocab = gen.make_pairs(seed, cfg["train_pairs"] + cfg["score_pairs"], reuse=False)
    gen.write_pairs(rows[: cfg["train_pairs"]], work / "train.tsv")
    gen.write_pairs(rows[cfg["train_pairs"] :], work / "score.tsv")
    gen.write_word2vec(vocab, work / "vectors.bin")
    (work / "inputs.json").write_text(json.dumps(gen.input_stats(rows[cfg["train_pairs"] :], vocab), indent=1))


def _worker(workload, work, cfg, seconds, trace, out, *extra):
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--work", str(work),
        "--config", json.dumps(cfg), "--seconds", str(seconds), "--trace", str(trace),
        "--out", str(out), *extra,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.run(
        cmd + ["--started", repr(started)], env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        stdout=subprocess.DEVNULL,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(out.read_text())


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with q% at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    args = ap.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for needed in (ROOT / "src" / "dupliq" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            return _fail(f"{needed.relative_to(ROOT)} not found: run from a checkout of the repository")

    cfg = dict(SIZES["smoke" if args.smoke else "full"][args.workload], seed=args.seed, smoke=args.smoke)
    load_1m = os.getloadavg()[0]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        make_inputs(args.workload, args.seed, cfg, work)
        if args.workload == "score_fresh":
            _worker(args.workload, work, cfg, 0, 0, work / "prepare.json", "--prepare")
        setups = [
            _worker(args.workload, work, cfg, 0, 0, work / f"probe{i}.json", "--probe")["setup_s"]
            for i in range(SETUP_PROBES)
        ]
        result = _worker(args.workload, work, cfg, args.seconds, args.trace, work / "run.json")
        if args.trace:
            traces = WORK / "traces"
            traces.mkdir(exist_ok=True)
            shutil.move(work / "run.spans.jsonl", traces / f"{args.workload}-{args.seed}.spans.jsonl")
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    latencies_ms = [t * 1e3 for t in result["latencies"]]
    if args.trace:
        units = metric_units()
        values = result["layers"]
    else:
        units = {
            "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "test_accuracy": "fraction",
            "score_p50_ms": "ms", "score_p99_ms": "ms",
        }
        values = {
            "setup_s": statistics.median(setups + [result["setup_s"]]),
            "run_s": result["run_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "test_accuracy": result["test_accuracy"],
            "score_p50_ms": statistics.median(latencies_ms),
            "score_p99_ms": percentile(latencies_ms, 99),
        }
    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    line = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(
        line, workload=args.workload, seed=args.seed, trace=args.trace, smoke=args.smoke,
        nproc=os.cpu_count(), load_1m=load_1m, rounds=result["rounds"], setup_samples=setups + [result["setup_s"]],
    )
    with open(WORK / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
