"""Self-test of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload at its tiny size, traced and untraced, and checks
that the result line carries exactly the metrics BENCHMARK.json names; that
the traced counts repeat exactly; that
a deliberately wrong value in the reference table makes the run fail; that
the seed alone decides the inputs; and that a directory holding only the
benchmark, without the library, is refused.  Exit code 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = os.path.join(".perfbench_out", "selftest")


def _run(*args: str, cwd: str = ".", bench: str = HERE) -> tuple[int, list[str]]:
    """Run the benchmark in ``bench`` with the library of ``cwd``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(bench, "run.py"), "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.splitlines()


def _result(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def _summary(lines: list[str]) -> dict:
    return json.loads(lines[-2].removeprefix("summary "))


def _copy_benchmark(dest: str) -> str:
    """Copy the benchmark's directory to ``dest``/perfbench; return its path."""
    shutil.rmtree(dest, ignore_errors=True)
    copy = os.path.join(dest, "perfbench")
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def _wrong_reference(bench: str) -> None:
    """Move a value of every entry of the reference table in ``bench``: iota
    by 1e-6, or the first digit 0 of the expected CLI output turned into 1."""
    path = os.path.join(bench, "reference.json")
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    for entries in table.values():
        for entry in entries.values():
            if "iota" in entry:
                entry["iota"] += 1e-6
            else:
                entry["stdout"] = entry["stdout"].replace("0", "1", 1)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    # a copy of the benchmark whose reference table is wrong, run against
    # the library of this checkout
    wrong = _copy_benchmark(os.path.join(SCRATCH, "wrong"))
    _wrong_reference(wrong)
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    counts = {"count", "count/op", "flop", "B"}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            code, lines = _run("--workload", workload, "--seed", "1", "--trace", trace, "--tiny")
            result = _result(lines) if lines else {}
            if trace == "1":
                again = _result(_run("--workload", workload, "--seed", "1", "--trace", "1",
                                     "--tiny")[1])
                expect(all(again["metrics"][m["name"]] == result["metrics"][m["name"]]
                           for m in listed if m["unit"] in counts),
                       f"{workload} counts repeat exactly")
            expect(code == 0 and result.get("correct") is True and result.get("failed") == 0,
                   f"{workload} trace={trace} passes its checks")
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{workload} trace={trace} result has exactly the contract keys")
            metrics = result.get("metrics", {})
            expect({m["name"]: m["unit"] for m in listed}
                   == {k: v["unit"] for k, v in metrics.items()},
                   f"{workload} trace={trace} emits every listed metric with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in metrics.values()),
                   f"{workload} trace={trace} metric values are numbers")
        code, lines = _run("--workload", workload, "--seed", "1", "--tiny", bench=wrong)
        result = _result(lines) if lines else {}
        expect(code == 1 and result.get("correct") is False and result.get("failed", 0) >= 1,
               f"{workload} fails on a wrong reference value")

    digests = [
        _summary(_run("--workload", "small_sweep", "--seed", seed, "--tiny")[1])["inputs"]
        for seed in ("1", "1", "2")
    ]
    expect(digests[0] == digests[1] != digests[2], "the seed alone decides the inputs")

    bare = os.path.join(SCRATCH, "bare")
    bare_bench = _copy_benchmark(bare)
    shutil.copy("BENCHMARK.json", bare)
    code, lines = _run("--workload", "small_sweep", "--seed", "1", cwd=bare, bench=bare_bench)
    expect(code != 0 and not lines, "a directory without the library is refused")
    shutil.rmtree(SCRATCH)

    print("selftest " + ("passed" if not problems else f"FAILED: {len(problems)} checks"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
