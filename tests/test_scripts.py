import csv
import io
import runpy
import sys
from pathlib import Path

import pytest

import infobalance as ib
from infobalance.cli import CSV_HEADER
from conftest import fano_under_threshold

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *args):
    """Run a script as ``__main__`` in-process; return its exit code."""
    monkeypatch.setattr(sys, "argv", [name, *args])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        return exc.code
    return 0


def test_tradeoff_curves(monkeypatch, capsys, tmp_path):
    code = run_script(
        monkeypatch, "tradeoff_curves.py", "--points", "3", "--out-dir", str(tmp_path)
    )
    assert code in (0, None)
    paths = [tmp_path / f"{name}.csv" for name in sorted(ib.FAMILIES)]
    assert len(paths) == 4
    assert sorted(tmp_path.iterdir()) == paths
    for path in paths:
        rows = list(csv.reader(io.StringIO(path.read_text())))
        assert rows[0] == CSV_HEADER
        assert [float(r[0]) for r in rows[1:]] == [0.0, 0.5, 1.0]
    out = capsys.readouterr().out
    assert out.splitlines() == [f"wrote 3 rows to {path}" for path in paths]


def test_correction_bounds(monkeypatch, capsys):
    code = run_script(monkeypatch, "correction_bounds.py", "--n", "3")
    assert code in (0, None)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["eps", "fidelity", "1-2sqrt", "1-4sqrt", "fano_bound", "ok"]
    assert len(lines) == 1 + 3 + 2
    assert lines[-1].startswith("met 1-2*sqrt(eps): ") and lines[-1].endswith("/3")


@pytest.mark.parametrize("factor", [2, 4])
def test_correction_bounds_count_a_fidelity_within_the_slack(monkeypatch, capsys, factor):
    monkeypatch.setattr(ib, "fano_bound_check", fano_under_threshold(factor))
    assert run_script(monkeypatch, "correction_bounds.py", "--n", "3") in (0, None)
    assert f"met 1-{factor}*sqrt(eps): 3/3" in capsys.readouterr().out.splitlines()[-1]
