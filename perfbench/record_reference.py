"""Write reference.json: the library's outputs on the fixed probe inputs and
on the seed-independent commands of the CLI script.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/record_reference.py

The table is a record of that commit.  Re-recording it on a later commit
hides any change in results from the correctness gate.
"""

from __future__ import annotations

import json
import os
import sys

from worker import import_library
from workloads import WORKLOADS


def main() -> int:
    ib = import_library(os.getcwd())
    table: dict[str, dict] = {}
    for name, cls in WORKLOADS.items():
        workload = cls(ib, 0, {})
        ops = workload.probes() + [op for op in workload.make_pass(0) if op.key]
        table[name] = {op.key: workload.reference_entry(op, workload.execute(op)) for op in ops}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(len(t) for t in table.values())} entries to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
