"""Benchmark of the infobalance library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload small_sweep --seed 1 --seconds 10 --trace 0

Each run starts fresh worker processes with BLAS pinned to one thread.  With
``--trace 0`` it sets up the workload several times, then times it for
``--seconds`` seconds and prints the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it times the workload the same way, then
replays one pass with every library function wrapped and prints the
per-layer metrics.  Every op is checked; the last line of stdout is one JSON
object, and the exit code is 0 only when every op passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: set-ups per --trace 0 run; setup_s is their median
SETUP_RUNS = 5
#: BLAS threads per worker: fixed, and at most the CPUs of the smallest
#: machine the benchmark runs on
BLAS_THREADS = "1"
#: a run ends within --seconds plus this many seconds, worker processes
#: included: the set-ups, the checks and the traced pass
ALLOWANCE_S = 140.0


class BenchmarkError(Exception):
    pass


def _worker(args, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Start one worker; return its set-up time and its result."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
    )
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        lines = []
        ready = None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
                raise BenchmarkError("worker did not finish in time")
            line = proc.stdout.readline()
            if not line:
                break
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - start
            else:
                lines.append(line)
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or not lines:
        raise BenchmarkError(f"worker exited with code {code}")
    return ready, json.loads(lines[-1])


def _select(spec_metrics: list[dict], values: dict) -> dict:
    out = {}
    for metric in spec_metrics:
        if metric["name"] not in values:
            raise BenchmarkError(f"metric {metric['name']} was not measured")
        out[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest shapes, for the self-test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.seconds + ALLOWANCE_S
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchmarkError(f"unknown workload {args.workload!r}")
        if not os.path.isfile(os.path.join("src", "infobalance", "__init__.py")):
            raise BenchmarkError("run from the root of a checkout: src/infobalance is missing")
        setups, attempted, failed = [], 0, 0
        for _ in range(SETUP_RUNS - 1 if args.trace == 0 else 0):
            setup_s, res = _worker(args, deadline, setup_only=True)
            setups.append(setup_s)
            attempted += res["attempted"]
            failed += res["failed"]
        setup_s, res = _worker(args, deadline, setup_only=False)
        setups.append(setup_s)
        attempted += res["attempted"]
        failed += res["failed"]
        measured = {
            "ops_per_s": 1.0 / res["typical_s"],
            "op_ms_p50": 1e3 * res["p50_s"],
            "op_ms_p99": 1e3 * res["p99_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        if args.trace:
            metrics = _select(spec["per_layer"], res["per_layer"])
        else:
            metrics = _select(spec["end_to_end"], measured)
    except (BenchmarkError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "failed_frac": failed / attempted,
        "samples": res["samples"],
        "strata": res["strata"],
        "inputs": res["inputs"],
        "setup_s_runs": setups,
        "env": res["env"],
        **({} if args.trace else measured),
    }
    print("summary " + json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
