#!/usr/bin/env python3
"""Sweep every built-in instrument family and write tradeoff-curve CSVs.

Each output file has one row per grid point with the information gain,
disturbance, missing information, and Groenewold gain on the chosen input
state, ready for plotting with any external tool.  Every file is written by
``infobalance sweep``, so the script and the CLI produce the same bytes.
"""

import argparse
import sys
from pathlib import Path

import infobalance as ib
from infobalance.cli import main as cli_main


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out", help="directory for CSV files")
    parser.add_argument("--points", type=int, default=21)
    parser.add_argument(
        "--state", default="maximally-mixed", help="'maximally-mixed' or 'diag:p'"
    )
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in sorted(ib.FAMILIES):
        path = out_dir / f"{name}.csv"
        argv = ["sweep", "--family", name, "--points", str(args.points),
                "--state", args.state, "--out", str(path), "--quiet"]
        code = cli_main(argv)
        if code:
            sys.exit(code)


if __name__ == "__main__":
    main()
