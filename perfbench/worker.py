"""One benchmark process: set up a workload, time it, check it, optionally trace it.

Started by run.py with BLAS threads pinned in the environment.  Protocol on
stdout: the line ``READY`` when set-up is done (the parent times set-up up to
that line), then one JSON line with the counts and measurements.  Messages
about failed ops go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict

_perf = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
_PROTOCOL = sys.stdout
#: how many failure messages one process prints
_MAX_MESSAGES = 5


def import_library(root: str):
    """Import infobalance from the checkout's src/, never from elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import infobalance
    import infobalance.cli  # noqa: F401  (not imported by the package itself)

    location = os.path.abspath(infobalance.__file__)
    if not location.startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"infobalance imported from {location}, not from {src}")
    return infobalance


def _blas_threads(np) -> str:
    """Thread count the loaded OpenBLAS reports, or the requested count."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')} (requested)"


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(np),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
    }


def inputs_digest(ops: list) -> str:
    """Hash of the inputs of a pass, to show which inputs a seed produced."""
    h = hashlib.sha256()

    def feed(obj) -> None:
        if hasattr(obj, "outcomes"):  # an instrument
            for om in obj.outcomes:
                for k in om.kraus:
                    h.update(k.tobytes())
        elif hasattr(obj, "matrix"):  # a state
            h.update(obj.matrix.tobytes())
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                feed(item)
        else:
            h.update(repr(obj).encode())

    for op in ops:
        feed(op.inputs)
    return h.hexdigest()[:16]


class Runner:
    """Executes ops, checks each, and counts attempts and failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def time(self, op, samples: dict, context=None) -> tuple:
        """Time one op (inside ``context``, if given); return its output, or
        None and the traceback when it raised."""
        self.attempted += 1
        with context or contextlib.nullcontext():
            start = _perf()
            try:
                output, error = self.workload.execute(op), None
            except Exception:  # one failed op must not stop the run
                output, error = None, traceback.format_exc()
            end = _perf()
        samples[op.stratum].append(end - start)
        return output, error

    def check(self, op, output, error: str | None) -> None:
        """Check the output of one timed op and count it if it failed."""
        errors = [error] if error else None
        if errors is None:
            try:
                errors = self.workload.verify(op, output)
            except Exception:  # malformed output that the checks cannot parse
                errors = [traceback.format_exc()]
        if errors:
            self.failed += 1
            if self.failed <= _MAX_MESSAGES:
                print(f"FAILED {self.workload.name} {op.stratum}: " + "; ".join(errors[:3]),
                      file=sys.stderr)

    def run(self, op, samples: dict, context=None) -> None:
        """Time one op, then check its output."""
        self.check(op, *self.time(op, samples, context))


def mix_stats(samples: dict[str, list[float]], share: dict[str, float], stat=min) -> dict:
    """Op time over the mix of strata in one pass.

    Each stratum is represented by ``stat`` of its times and weighs its
    share of a pass.  The default, its fastest time, is the op's cost with
    the least slowdown from other load on the machine: that load only ever
    adds time, and on a shared host it slows whole stretches of a run, which
    a median does not discard.  ``typical_s`` is the mean over the mix, the
    quantiles interpolate between the stratum midpoints of its cumulative
    weight.  None of them depends on where in a pass the time ran out.
    """
    points = sorted((stat(ts), share[s]) for s, ts in samples.items())
    times = [t for t, _ in points]
    mids, cum = [], 0.0
    for _, w in points:
        mids.append(cum + w / 2.0)
        cum += w

    def quantile(q: float) -> float:
        if q <= mids[0]:
            return times[0]
        for i in range(1, len(mids)):
            if q <= mids[i]:
                f = (q - mids[i - 1]) / (mids[i] - mids[i - 1])
                return times[i - 1] + f * (times[i] - times[i - 1])
        return times[-1]

    return {
        "typical_s": sum(t * w for t, w in points),
        "p50_s": quantile(0.5),
        "p99_s": quantile(0.99),
        "samples": sum(len(ts) for ts in samples.values()),
        "strata": len(points),
    }


def timed_window(runner: Runner, first_pass: list, seconds: float) -> dict[str, list[float]]:
    """Run whole passes, and stop at the first op after ``seconds`` once the
    first pass is complete."""
    samples: dict[str, list[float]] = defaultdict(list)
    ops, pass_index = first_pass, 0
    start = _perf()
    while True:
        for op in ops:
            if pass_index > 0 and _perf() - start >= seconds:
                return samples
            runner.run(op, samples)
        pass_index += 1
        ops = runner.workload.make_pass(pass_index)


def traced_pass(ib, runner: Runner, ops: list, share: dict, untraced: float,
                spans_path: str, header: dict) -> dict:
    """Replay one pass with every library function wrapped; per-layer metrics."""
    import gate
    from tracer import COUNTERS, MODULES, Tracer

    headrooms: list[float] = []
    tracer = Tracer({"measures.balance_report": lambda r: headrooms.append(gate.headroom(r))})
    tracer.install(ib)
    samples: dict[str, list[float]] = defaultdict(list)
    try:
        for i, op in enumerate(ops):
            runner.run(op, samples, tracer.op_span(i))
    finally:
        tracer.uninstall()
    self_time, wall = tracer.self_times()
    metrics: dict[str, float] = {}
    for name in tracer.names[1:]:
        metrics[f"{name}.self_s"] = self_time.get(name, 0.0)
        metrics[f"{name}.calls"] = tracer.calls.get(name, 0)
        metrics[f"{name}.calls_per_op"] = tracer.calls.get(name, 0) / len(ops)
    for name, (counter, _) in COUNTERS.items():
        metrics[f"{name}.{counter}"] = tracer.counts.get(name, 0)
    attributed = 0.0
    for module in MODULES:
        metrics[f"{module}.self_s"] = sum(
            (t for name, t in self_time.items() if name.startswith(module + ".")), 0.0
        )
        attributed += metrics[f"{module}.self_s"]
    # one traced sample per stratum, so compare with the untraced medians
    traced = mix_stats(samples, share, statistics.median)["typical_s"]
    metrics.update({
        "trace.wall_s": wall,
        "trace.attributed_frac": attributed / wall,
        "trace.overhead_frac": traced / untraced - 1.0,
        "trace.ops": len(ops),
        "trace.spans": len(tracer.spans),
        "measures.residual_headroom_max": max(headrooms, default=0.0),
    })
    tracer.write(spans_path, dict(header, metrics=metrics))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    import numpy as np

    ib = import_library(root)
    from workloads import WORKLOADS

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]
    workload = WORKLOADS[args.workload](ib, args.seed, reference, tiny=args.tiny)
    runner = Runner(workload)
    first_pass = workload.make_pass(0)
    # warm-up on the probe inputs; their outputs are checked against the
    # reference table after READY, so set-up time does not include the checks
    warmup: dict[str, list[float]] = defaultdict(list)
    probed = [(op, *runner.time(op, warmup)) for op in workload.probes()]
    print("READY", file=_PROTOCOL, flush=True)
    for op, output, error in probed:
        runner.check(op, output, error)

    result = {"attempted": runner.attempted, "failed": runner.failed}
    if not args.setup_only:
        counts = Counter(op.stratum for op in first_pass)
        share = {s: c / len(first_pass) for s, c in counts.items()}
        samples = timed_window(runner, first_pass, args.seconds)
        result.update(mix_stats(samples, share))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = environment(np)
        result["inputs"] = inputs_digest(first_pass)
        if args.trace:
            out_dir = os.path.join(root, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            header = {"workload": args.workload, "seed": args.seed, "env": result["env"]}
            result["per_layer"] = traced_pass(
                ib, runner, first_pass, share,
                mix_stats(samples, share, statistics.median)["typical_s"],
                os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl.gz"), header,
            )
        result.update(attempted=runner.attempted, failed=runner.failed)
    print(json.dumps(result), file=_PROTOCOL, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
