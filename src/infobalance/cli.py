"""Command-line interface.

Subcommands: validate, analyze, sweep, recover, random, holevo.  Exit codes:
0 success/pass, 1 domain failure or out of memory, 2 I/O or parse failure.
All output is deterministic given flags and seeds; the version banner on
stdout is suppressed by --quiet.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import math
import sys

import numpy as np

from . import __version__
from .encodings import holevo_check
from .errors import InfoBalanceError, ParseError
from .families import DEFAULT_PARAMS, FAMILIES
from .measures import _iter_reports, balance_report
from .objects import Instrument, purify, random_instrument, validate
from .recovery import correction_thresholds, fano_bound_check, petz_family
from .serialize import (
    dumps_instrument,
    dumps_json,
    loads_instrument,
    loads_state,
)
from .tensors import LabeledState, Subsystem

CSV_HEADER = ["parameter", "iota", "delta", "noise", "iota_g", "residual_balance"]


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _number(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{what}: {text!r} is not a number") from None


def _family(name: str):
    """The built-in family called ``name``."""
    if name not in FAMILIES:
        raise InfoBalanceError(f"unknown family {name!r}; built-ins: {sorted(FAMILIES)}")
    return FAMILIES[name]


def _load_instrument(arg: str, check: bool = True) -> Instrument:
    if arg.startswith("family:"):
        rest = arg[len("family:"):]
        name, _, param = rest.partition(":")
        family = _family(name)
        t = _number(param, "family parameter") if param else DEFAULT_PARAMS[name]
        return family(t)
    return loads_instrument(_read_text(arg), validate_invariants=check)


def _load_state(source: str, d_in: int) -> LabeledState:
    """The input state; its dimension is checked by the library call it feeds."""
    if source == "maximally-mixed":
        return LabeledState((Subsystem("Q", d_in),), np.eye(d_in) / d_in)
    if source.startswith("diag:"):
        entries = source[len("diag:"):].split(",")
        values = [_number(v, "diag state") for v in entries if v]
        if len(values) == 1:
            values = [values[0], 1.0 - values[0]]
        diag = np.diag(values).astype(complex)
        return LabeledState((Subsystem("Q", len(values)),), diag)
    return loads_state(_read_text(source))


def _banner(args) -> None:
    if not args.quiet:
        print(f"infobalance {__version__}")


#: result-document fields that carry entropies in bits; ``residual_routes``
#: is a dict and every value in it is one
ENTROPIC_FIELDS = frozenset(
    {"iota", "delta", "noise", "iota_g", "residual_balance", "residual_routes",
     "iota_m", "delta_m", "noise_m", "fano_bound", "max_classical_mi", "margin"}
)


def _in_units(doc: dict, nats: bool) -> dict:
    """``doc`` with every entropic field converted to nats if ``nats`` is set."""
    if not nats:
        return doc
    u = math.log(2.0)
    out = {}
    for key, value in doc.items():
        if isinstance(value, list):
            value = [_in_units(row, nats) for row in value]
        elif key in ENTROPIC_FIELDS and isinstance(value, dict):
            value = {k: v * u for k, v in value.items()}
        elif key in ENTROPIC_FIELDS:
            value = value * u
        out[key] = value
    return out


def _csv(rows) -> str:
    """CSV_HEADER, then one line per ``(parameter, document)`` pair."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for parameter, doc in rows:
        writer.writerow([parameter] + [format(doc[k], ".17g") for k in CSV_HEADER[1:]])
    return buf.getvalue()


def _cell(key: str, value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    if key in ("residual_balance", "excluded_weight"):
        return f"{value:.3e}"
    return f"{value:.6f}"


def _emit(doc: dict, args) -> None:
    """Print the banner and a result document in ``--format``, in ``--nats`` if set.

    The table lists the scalar fields in document order, keys padded to the
    longest key plus two (``excluded_weight`` only when positive), then the
    per-outcome rows; ``residual_routes`` is json-only.
    """
    doc = _in_units(doc, args.nats)
    _banner(args)
    if args.format == "json":
        sys.stdout.write(dumps_json(doc))
        return
    if args.format == "csv":
        sys.stdout.write(_csv([("", doc)]))
        return
    width = max(map(len, doc)) + 2
    for key, value in doc.items():
        if isinstance(value, (dict, list)):
            continue
        if key == "excluded_weight" and not value > 0.0:
            continue
        print(f"{key:<{width}}{_cell(key, value)}")
    if "per_outcome" in doc:
        print(f"{'outcome':<10}{'p':<12}{'iota_m':<12}{'delta_m':<12}{'noise_m':<12}")
        for row in doc["per_outcome"]:
            print(
                f"{row['label']:<10}{row['p']:<12.6f}{row['iota_m']:<12.6f}"
                f"{row['delta_m']:<12.6f}{row['noise_m']:<12.6f}"
            )


def _write_out(args, text: str, what: str) -> None:
    """Write ``text`` to ``--out`` and say so, or to stdout; banner first."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _banner(args)
        print(f"wrote {what} to {args.out}")
    else:
        _banner(args)
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    instr = _load_instrument(args.file, check=False)
    _banner(args)
    report = validate(instr)
    print(f"{'passed':<18}{'yes' if report.passed else 'no'}")
    tp = report.tp_deviation
    print(f"{'tp_deviation':<18}{tp:.6g}")
    print(f"{'dims_ok':<18}{'yes' if report.dims_ok else 'no'}")
    for label, excess in report.outcome_excess.items():
        print(f"{'outcome ' + label:<18}excess {excess:.6g}")
    for issue in report.issues:
        print(f"violated: {issue}")
    return 0 if report.passed else 1


def cmd_analyze(args) -> int:
    instr = _load_instrument(args.instrument)
    rho = _load_state(args.state, instr.d_in)
    _emit(balance_report(instr, rho).to_dict(), args)
    return 0


def cmd_sweep(args) -> int:
    family = _family(args.family)
    if args.grid:
        grid = [_number(v, "--grid") for v in args.grid.split(",") if v]
    else:
        grid = list(np.linspace(0.0, 1.0, args.points))
    if not grid:
        raise InfoBalanceError("empty parameter grid")
    instruments = map(family, grid)
    first = next(instruments)
    # a family's d_in does not depend on its parameter
    rho = _load_state(args.state, first.d_in)
    instruments = itertools.chain([first], instruments)
    del first  # the batch alone decides how long an instrument lives
    # each instrument is built as the batch takes its pair, so errors come in
    # grid order; each report becomes its row as its block completes
    reports = _iter_reports((instr, rho) for instr in instruments)
    rows = (
        (format(t, ".17g"), _in_units({k: getattr(report, k) for k in CSV_HEADER[1:]}, args.nats))
        for t, report in zip(grid, reports)
    )
    _write_out(args, _csv(rows), f"{len(grid)} rows")
    return 0


def cmd_recover(args) -> int:
    instr = _load_instrument(args.instrument)
    rho = _load_state(args.state, instr.d_in)
    fano = fano_bound_check(instr, rho, petz_family(instr, rho))
    bound2, bound4, meets2, meets4 = correction_thresholds(fano.delta, fano.fidelity)
    doc = {
        "delta": fano.delta,
        "corrected_fidelity": fano.fidelity,
        "bound_2sqrt": bound2,
        "bound_4sqrt": bound4,
        "meets_2sqrt": meets2,
        "meets_4sqrt": meets4,
        "fano_bound": fano.bound,
        "fano_holds": bool(fano.holds),
    }
    _emit(doc, args)
    return 0 if meets4 and fano.holds else 1


def cmd_random(args) -> int:
    instr = random_instrument(
        args.seed, args.d_in, args.d_out, args.outcomes, args.multiplicity
    )
    _write_out(args, dumps_instrument(instr), "instrument")
    return 0


def cmd_holevo(args) -> int:
    instr = _load_instrument(args.instrument)
    rho = _load_state(args.state, instr.d_in)
    report = holevo_check(purify(rho), instr, args.trials, args.seed)
    _emit(report.to_dict(), args)
    return 0


def _add_shared(sub, *, state=False, formats=(), seed=False, nats=False) -> None:
    """Add ``--quiet`` and those shared flags the subcommand reads."""
    if state:
        sub.add_argument(
            "--state",
            default="maximally-mixed",
            help="input state: 'maximally-mixed', 'diag:p[,..]', or a state file",
        )
    if formats:
        sub.add_argument("--format", choices=formats, default="table")
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--quiet", action="store_true", help="suppress version banner")
    if nats:
        sub.add_argument(
            "--nats", action="store_true", help="present entropic values in nats"
        )


#: subcommand -> handler; ``main`` dispatches through this dict
COMMANDS = {"validate": cmd_validate, "analyze": cmd_analyze, "sweep": cmd_sweep,
            "recover": cmd_recover, "random": cmd_random, "holevo": cmd_holevo}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infobalance",
        description="Information balance of finite-dimensional quantum measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instrument file")
    p.add_argument("file")
    _add_shared(p)

    p = sub.add_parser("analyze", help="balance report for an instrument")
    p.add_argument("instrument", help="instrument file or family:NAME[:PARAM]")
    _add_shared(p, state=True, formats=("json", "table", "csv"), nats=True)

    p = sub.add_parser("sweep", help="tradeoff curve over a parameter grid")
    p.add_argument("--family", required=True, help=f"one of {sorted(FAMILIES)}")
    p.add_argument("--grid", help="comma-separated parameters in [0, 1]")
    p.add_argument("--points", type=int, default=11, help="linspace size if no grid")
    p.add_argument("--out", help="CSV output path (stdout if omitted)")
    _add_shared(p, state=True, nats=True)

    p = sub.add_parser("recover", help="Petz recovery and fidelity bounds")
    p.add_argument("instrument", help="instrument file or family:NAME[:PARAM]")
    _add_shared(p, state=True, formats=("json", "table"), nats=True)

    p = sub.add_parser("random", help="generate a Haar-random instrument")
    p.add_argument("--d-in", type=int, default=2)
    p.add_argument("--d-out", type=int, default=2)
    p.add_argument("--outcomes", type=int, default=2)
    p.add_argument("--multiplicity", type=int, default=1)
    p.add_argument("--out", help="output path (stdout if omitted)")
    _add_shared(p, seed=True)

    p = sub.add_parser("holevo", help="randomized Holevo-bound sweep")
    p.add_argument("instrument", help="instrument file or family:NAME[:PARAM]")
    p.add_argument("--trials", type=int, default=100)
    _add_shared(p, state=True, formats=("json", "table"), seed=True, nats=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later ``main`` call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for flag in ("seed", "trials", "points"):
            value = getattr(args, flag, 0)
            if value < 0:
                raise ParseError(f"--{flag} must be nonnegative, got {value}")
        return COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except InfoBalanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
