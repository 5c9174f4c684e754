"""Command-line interface.

Subcommands: validate, analyze, sweep, recover, random, holevo.  Exit codes:
0 success/pass, 1 domain failure, 2 I/O or parse failure.  All output is
deterministic given flags and seeds; the version banner on stdout is
suppressed by --quiet.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

import numpy as np

from . import __version__
from .encodings import holevo_check
from .errors import InfoBalanceError, ParseError
from .families import DEFAULT_PARAMS, FAMILIES
from .measures import BalanceReport, balance_report, disturbance
from .objects import Instrument, purify, random_instrument, validate
from .recovery import corrected_fidelity, fano_bound_check, petz_family
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


def _load_instrument(arg: str, check: bool = True) -> Instrument:
    if arg.startswith("family:"):
        rest = arg[len("family:"):]
        name, _, param = rest.partition(":")
        if name not in FAMILIES:
            raise InfoBalanceError(
                f"unknown family {name!r}; built-ins: {sorted(FAMILIES)}"
            )
        t = _number(param, "family parameter") if param else DEFAULT_PARAMS[name]
        return FAMILIES[name](t)
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


def _unit(args) -> float:
    return math.log(2.0) if args.nats else 1.0


def _print_report(report: BalanceReport, args) -> None:
    u = _unit(args)
    if args.format == "json":
        doc = report.to_dict()
        for key in ("iota", "delta", "noise", "iota_g", "residual_balance"):
            doc[key] = doc[key] * u
        for row in doc["per_outcome"]:
            for key in ("iota_m", "delta_m", "noise_m"):
                row[key] = row[key] * u
        doc["residual_routes"] = {k: v * u for k, v in doc["residual_routes"].items()}
        sys.stdout.write(dumps_json(doc))
        return
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerow(
            [""]
            + [
                format(v * u, ".17g")
                for v in (
                    report.iota,
                    report.delta,
                    report.noise,
                    report.iota_g,
                    report.residual_balance,
                )
            ]
        )
        sys.stdout.write(buf.getvalue())
        return
    print(f"{'iota':<18}{report.iota * u:.6f}")
    print(f"{'delta':<18}{report.delta * u:.6f}")
    print(f"{'noise':<18}{report.noise * u:.6f}")
    print(f"{'iota_g':<18}{report.iota_g * u:.6f}")
    print(f"{'residual_balance':<18}{report.residual_balance * u:.3e}")
    if report.excluded_weight > 0.0:
        print(f"{'excluded_weight':<18}{report.excluded_weight:.3e}")
    print(f"{'outcome':<10}{'p':<12}{'iota_m':<12}{'delta_m':<12}{'noise_m':<12}")
    for row in report.per_outcome:
        print(
            f"{row.label:<10}{row.p:<12.6f}{row.iota_m * u:<12.6f}"
            f"{row.delta_m * u:<12.6f}{row.noise_m * u:<12.6f}"
        )


def cmd_validate(args) -> int:
    try:
        instr = _load_instrument(args.file, check=False)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
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
    report = balance_report(instr, rho)
    _banner(args)
    _print_report(report, args)
    return 0


def cmd_sweep(args) -> int:
    if args.family not in FAMILIES:
        raise InfoBalanceError(
            f"unknown family {args.family!r}; built-ins: {sorted(FAMILIES)}"
        )
    family = FAMILIES[args.family]
    if args.grid:
        grid = [_number(v, "--grid") for v in args.grid.split(",") if v]
    else:
        grid = list(np.linspace(0.0, 1.0, args.points))
    if not grid:
        raise InfoBalanceError("empty parameter grid")
    u = _unit(args)
    rows = []
    for t in grid:
        instr = family(t)
        rho = _load_state(args.state, instr.d_in)
        report = balance_report(instr, rho)
        rows.append(
            [
                format(t, ".17g"),
                format(report.iota * u, ".17g"),
                format(report.delta * u, ".17g"),
                format(report.noise * u, ".17g"),
                format(report.iota_g * u, ".17g"),
                format(report.residual_balance * u, ".17g"),
            ]
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
        _banner(args)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        _banner(args)
        sys.stdout.write(buf.getvalue())
    return 0


def cmd_recover(args) -> int:
    instr = _load_instrument(args.instrument)
    rho = _load_state(args.state, instr.d_in)
    delta = disturbance(instr, rho)
    family = petz_family(instr, rho)
    fidelity = corrected_fidelity(instr, rho, family)
    fano = fano_bound_check(instr, rho, family, delta=delta)
    eps = max(delta, 0.0)
    bound2 = 1.0 - 2.0 * math.sqrt(eps)
    bound4 = 1.0 - 4.0 * math.sqrt(eps)
    meets4 = fidelity >= bound4 - 1e-9
    u = _unit(args)
    _banner(args)
    if args.format == "json":
        sys.stdout.write(
            dumps_json(
                {
                    "delta": delta * u,
                    "corrected_fidelity": fidelity,
                    "bound_2sqrt": bound2,
                    "bound_4sqrt": bound4,
                    "meets_2sqrt": bool(fidelity >= bound2 - 1e-9),
                    "meets_4sqrt": bool(meets4),
                    "fano_bound": fano.bound * u,
                    "fano_holds": bool(fano.holds),
                }
            )
        )
    else:
        print(f"{'delta':<20}{delta * u:.6f}")
        print(f"{'corrected_fidelity':<20}{fidelity:.6f}")
        print(f"{'bound_2sqrt':<20}{bound2:.6f}")
        print(f"{'bound_4sqrt':<20}{bound4:.6f}")
        print(f"{'meets_2sqrt':<20}{'yes' if fidelity >= bound2 - 1e-9 else 'no'}")
        print(f"{'meets_4sqrt':<20}{'yes' if meets4 else 'no'}")
        print(f"{'fano_bound':<20}{fano.bound * u:.6f}")
        print(f"{'fano_holds':<20}{'yes' if fano.holds else 'no'}")
    if not meets4 or not fano.holds:
        return 1
    return 0


def cmd_random(args) -> int:
    instr = random_instrument(
        args.seed, args.d_in, args.d_out, args.outcomes, args.multiplicity
    )
    text = dumps_instrument(instr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _banner(args)
        print(f"wrote instrument to {args.out}")
    else:
        _banner(args)
        sys.stdout.write(text)
    return 0


def cmd_holevo(args) -> int:
    instr = _load_instrument(args.instrument)
    rho = _load_state(args.state, instr.d_in)
    report = holevo_check(purify(rho), instr, args.trials, args.seed)
    u = _unit(args)
    _banner(args)
    if args.format == "json":
        doc = report.to_dict()
        doc["iota"] *= u
        doc["max_classical_mi"] *= u
        doc["margin"] *= u
        sys.stdout.write(dumps_json(doc))
    else:
        print(f"{'iota':<18}{report.iota * u:.6f}")
        print(f"{'max_classical_mi':<18}{report.max_classical_mi * u:.6f}")
        print(f"{'margin':<18}{report.margin * u:.6f}")
        print(f"{'n_trials':<18}{report.n_trials}")
        print(f"{'seed':<18}{report.seed}")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--state",
        default="maximally-mixed",
        help="input state: 'maximally-mixed', 'diag:p[,..]', or a state file",
    )
    sub.add_argument("--format", choices=("json", "table", "csv"), default="table")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--quiet", action="store_true", help="suppress version banner")
    sub.add_argument(
        "--nats", action="store_true", help="present entropic values in nats"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infobalance",
        description="Information balance of finite-dimensional quantum measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instrument file")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="balance report for an instrument")
    p.add_argument("instrument", help="instrument file or family:NAME[:PARAM]")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="tradeoff curve over a parameter grid")
    p.add_argument("--family", required=True, help=f"one of {sorted(FAMILIES)}")
    p.add_argument("--grid", help="comma-separated parameters in [0, 1]")
    p.add_argument("--points", type=int, default=11, help="linspace size if no grid")
    p.add_argument("--out", help="CSV output path (stdout if omitted)")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("recover", help="Petz recovery and fidelity bounds")
    p.add_argument("instrument", help="instrument file or family:NAME[:PARAM]")
    _add_common(p)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("random", help="generate a Haar-random instrument")
    p.add_argument("--d-in", type=int, default=2)
    p.add_argument("--d-out", type=int, default=2)
    p.add_argument("--outcomes", type=int, default=2)
    p.add_argument("--multiplicity", type=int, default=1)
    p.add_argument("--out", help="output path (stdout if omitted)")
    _add_common(p)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("holevo", help="randomized Holevo-bound sweep")
    p.add_argument("instrument", help="instrument file or family:NAME[:PARAM]")
    p.add_argument("--trials", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_holevo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("seed", "trials", "points"):
            value = getattr(args, flag, 0)
            if value < 0:
                raise ParseError(f"--{flag} must be nonnegative, got {value}")
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except InfoBalanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
