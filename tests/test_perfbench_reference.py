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
