"""The benchmark's reference table, replayed in the test suite.

Every probe op of ``perfbench/workloads.py`` and every keyed op of its
cli_mix script runs through the workload's own ``execute`` and ``verify``
against ``perfbench/reference.json``, so a changed number, sweep file or
table cell fails here and not only in a benchmark run.  ``perfbench/`` is
imported, not changed; the CLI writes its files under ``tmp_path``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import infobalance as ib
from infobalance import cli  # noqa: F401  (the cli_mix workload calls ib.cli.main)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def keyed_ops(name):
    workload = workloads.WORKLOADS[name](ib, 0, REFERENCE[name])
    ops = workload.probes()
    if name == "cli_mix":
        ops += [op for op in workload.make_pass(0) if op.key is not None]
    return workload, ops


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_table_replays(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload, ops = keyed_ops(name)
    assert ops and all(op.key in REFERENCE[name] for op in ops)
    errors = []
    for op in ops:
        errors += workload.verify(op, workload.execute(op))
    assert errors == []


def test_small_sweep_seed_2_petz_map_is_trace_preserving():
    # pass 20 of seed 2 holds a (4, 4, 4, 1) pair whose outcome '2' posterior has the
    # eigenvalue 5.69e-10: kept as support by a hand-set cut of 1e-10, its inverse root
    # left that outcome's channel trace preserving only to 4.8e-8
    workload = workloads.WORKLOADS["small_sweep"](ib, 2, {})
    ops = []
    for op in workload.make_pass(20):
        if op.stratum == "(4, 4, 4, 1)/r4":
            instr, rho = op.inputs
            low = np.linalg.eigvalsh(instr.outcome("2").apply(rho.matrix))[0]
            if 5.6e-10 < low < 5.8e-10:
                ops.append(op)
    assert len(ops) == 1
    assert workload.verify(ops[0], workload.execute(ops[0])) == []
