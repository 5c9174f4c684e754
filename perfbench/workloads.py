"""The benchmark's workloads: inputs made from a seed, one op each, and the
checks each op must pass.

Every workload is a fixed set of strata (an instrument shape and state rank,
or a command of the CLI script) drawn again on every pass with fresh random
matrices, so two seeds give different inputs with the same mix of sizes.
Throughput and latency are taken over the mix of strata in one pass, which
keeps them comparable between seeds and between runs that stop mid-pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import gate

#: seed of the inputs whose values are stored in reference.json
REFERENCE_SEED = 20080521
#: directory, relative to the checkout, for files the CLI workload writes
OUT_DIR = os.path.join(".perfbench_out", "cli")


@dataclass
class Op:
    stratum: str
    inputs: tuple
    #: entry of the reference table this op is checked against, if any
    key: str | None = None


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def random_density(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


class _InstrumentWorkload:
    """Ops on (instrument, state) pairs; subclasses define shapes and the op."""

    name = ""
    tag = 0

    def __init__(self, ib, seed: int, reference: dict, tiny: bool = False) -> None:
        self.ib = ib
        self.seed = seed
        self.reference = reference
        self.strata_shapes = self.tiny_shapes() if tiny else self.shapes()

    def _ops(self, seed: int, pass_index: int, shapes, keyed: bool = False) -> list[Op]:
        ib = self.ib
        rng = _rng(seed, self.tag, pass_index)
        ops = []
        for shape in shapes:
            instr = ib.random_instrument(int(rng.integers(2**63)), *shape)
            d_in = shape[0]
            for j, rank in enumerate(self.ranks(d_in)):
                rho = ib.LabeledState(
                    [ib.Subsystem("Q", d_in)], random_density(rng, d_in, rank)
                )
                key = f"{shape}/{j}" if keyed else None
                ops.append(Op(f"{shape}/r{rank}", (instr, rho), key))
        return [ops[i] for i in rng.permutation(len(ops))]

    def make_pass(self, pass_index: int) -> list[Op]:
        return self._ops(self.seed, pass_index, self.strata_shapes)

    def probes(self) -> list[Op]:
        return self._ops(REFERENCE_SEED, 0, self.probe_shapes(), keyed=True)

    def reference_entry(self, op: Op, output) -> dict:
        return self.values(output)

    def verify(self, op: Op, output) -> list[str]:
        instr, rho = op.inputs
        expected = gate.oracle_balance(gate.instrument_kraus(instr), rho.matrix)
        errors: list[str] = []
        self.check(op, output, expected, errors)
        if op.key is not None:
            if op.key not in self.reference:
                errors.append(f"reference table has no entry {op.key!r}")
            else:
                gate.compare_values(self.values(output), self.reference[op.key], errors)
        return errors


class DenseScale(_InstrumentWorkload):
    """One balance_report per op on the largest shapes the dense path handles."""

    name = "dense_scale"
    tag = 1

    @staticmethod
    def shapes():
        # (d_in, d_out, n_outcomes, multiplicity); mult=1, d_out<d_in and the
        # rank-d/2 states are the regimes a structured engine changes
        return ((16, 16, 4, 3), (16, 16, 4, 1), (12, 12, 4, 3), (16, 8, 2, 3))

    @staticmethod
    def tiny_shapes():
        return ((6, 6, 2, 2), (6, 3, 2, 2))

    @staticmethod
    def probe_shapes():
        return ((16, 8, 2, 3),)

    @staticmethod
    def ranks(d_in: int) -> tuple[int, ...]:
        return (d_in, max(1, d_in // 2))

    def execute(self, op: Op):
        return self.ib.balance_report(*op.inputs)

    def values(self, report) -> dict:
        return gate.report_values(report)

    def check(self, op, report, expected, errors) -> None:
        gate.check_report(report, _report_part(expected), errors)


class SmallSweep(_InstrumentWorkload):
    """The acceptance-sweep traffic: many small pairs, bound by Python overhead."""

    name = "small_sweep"
    tag = 2

    @staticmethod
    def shapes():
        return tuple(
            (d_in, d_out, n, mult)
            for d_in in range(2, 7)
            for d_out in range(2, 5)
            for n in range(2, 5)
            for mult in range(1, 4)
            if d_out * n * mult >= d_in
        )

    @classmethod
    def tiny_shapes(cls):
        return cls.shapes()[::20]

    @classmethod
    def probe_shapes(cls):
        return cls.shapes()[::19]

    @staticmethod
    def ranks(d_in: int) -> tuple[int, ...]:
        # four full-rank states and one rank-deficient state per instrument
        return (d_in,) * 4 + (max(1, d_in // 2),)

    def execute(self, op: Op):
        ib = self.ib
        instr, rho = op.inputs
        report = ib.balance_report(instr, rho)
        dno = ib.disturbance_no_outcomes(instr, rho)
        family = ib.petz_family(instr, rho)
        fano = ib.fano_bound_check(instr, rho, family, delta=report.delta)
        return report, dno, family, fano

    def values(self, output) -> dict:
        report, dno, _, fano = output
        return {
            **gate.report_values(report),
            "dno": dno,
            "fidelity": fano.fidelity,
            "fano_bound": fano.bound,
        }

    def check(self, op, output, expected, errors) -> None:
        report, dno, family, fano = output
        instr, _ = op.inputs
        gate.check_report(report, _report_part(expected), errors)
        gate.compare_values({"dno": dno}, {"dno": expected["dno"]}, errors)
        if not dno >= report.delta - 1e-9:
            errors.append(f"data processing violated: {dno!r} < delta {report.delta!r}")
        if family.outcome_labels != instr.outcome_labels:
            errors.append("recovery family labels differ from the instrument's")
        for label, channel in zip(family.outcome_labels, family.channels):
            tp = sum(r.conj().T @ r for r in channel)
            dev = float(np.max(np.abs(tp - np.eye(instr.d_out))))
            if not dev <= 1e-8:
                errors.append(f"recovery for outcome {label!r} not trace preserving: {dev:.3e}")
        if not (fano.holds and fano.delta == report.delta):
            errors.append(f"Fano check failed: {fano}")
        if not -1e-9 <= fano.fidelity <= 1.0 + 1e-9:
            errors.append(f"fidelity {fano.fidelity!r} outside [0, 1]")


def _report_part(expected: dict) -> dict:
    return {k: expected[k] for k in ("iota", "delta", "noise", "iota_g", "per_outcome")}


# -- CLI -------------------------------------------------------------------------

PRESETS = ("filter", "partial-dephasing", "depolarizing", "projective")
#: (d, outcomes, multiplicity) of the random instrument files
RANDOM_FILES = ((6, 3, 2), (8, 2, 2), (10, 2, 1))
#: the CLI default
HOLEVO_TRIALS = "100"


@dataclass
class CliOutput:
    code: int
    stdout: str


def _preset_commands(family: str) -> list[list[str]]:
    inst = f"family:{family}"
    return [
        ["analyze", inst, "--quiet"],
        ["analyze", inst, "--quiet", "--format", "json"],
        ["analyze", inst, "--quiet", "--format", "csv", "--nats"],
        ["sweep", "--family", family, "--points", "21", "--quiet",
         "--out", os.path.join(OUT_DIR, f"{family}.csv")],
        ["recover", inst, "--quiet"],
        ["holevo", inst, "--quiet", "--format", "json", "--trials", HOLEVO_TRIALS,
         "--seed", "7"],
    ]


def _random_commands(d: int, n: int, mult: int, seed: int, tag: str) -> list[list[str]]:
    path = os.path.join(OUT_DIR, f"random-{tag}.json")
    return [
        ["random", "--quiet", "--seed", str(seed), "--d-in", str(d), "--d-out", str(d),
         "--outcomes", str(n), "--multiplicity", str(mult), "--out", path],
        ["validate", path, "--quiet"],
        ["holevo", path, "--quiet", "--format", "json", "--trials", HOLEVO_TRIALS,
         "--seed", str(seed % 1000)],
    ]


def _file_instrument(path: str) -> tuple[dict, list[list[np.ndarray]]]:
    """Read an instrument file without the library, for the oracle."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    kraus = [
        [np.array([[complex(*z) for z in row] for row in k]) for k in outcome["kraus"]]
        for outcome in doc["outcomes"]
    ]
    return doc, kraus


class CliMix:
    """A fixed script of in-process CLI commands; one command is one op."""

    name = "cli_mix"
    tag = 3

    def __init__(self, ib, seed: int, reference: dict, tiny: bool = False) -> None:
        self.ib = ib
        self.seed = seed
        self.reference = reference
        self.presets = PRESETS[:1] if tiny else PRESETS
        self.random_files = RANDOM_FILES[:1] if tiny else RANDOM_FILES
        os.makedirs(OUT_DIR, exist_ok=True)

    def _script(self, seeds) -> list[Op]:
        ops = []
        for family in self.presets:
            for argv in _preset_commands(family):
                key = " ".join(argv)
                ops.append(Op(key, (argv,), key))
        for (d, n, mult), s in zip(self.random_files, seeds):
            for argv in _random_commands(d, n, mult, s, str(d)):
                ops.append(Op(f"{argv[0]} d={d}", (argv, (d, n, mult)), None))
        return ops

    def make_pass(self, pass_index: int) -> list[Op]:
        rng = _rng(self.seed, self.tag, pass_index)
        return self._script([int(s) for s in rng.integers(1, 2**31, len(self.random_files))])

    def probes(self) -> list[Op]:
        ops = []
        for argv in (
            ["analyze", "family:filter", "--quiet", "--format", "json"],
            ["recover", "family:projective", "--quiet"],
            ["holevo", "family:projective", "--quiet", "--format", "json", "--trials",
             "5", "--seed", "3"],
        ) + tuple(_random_commands(6, 3, 2, REFERENCE_SEED, "probe")):
            key = " ".join(argv)
            ops.append(Op(key, (argv,), key))
        return ops

    def execute(self, op: Op) -> CliOutput:
        argv = op.inputs[0]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.ib.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code if isinstance(exc.code, int) else 2
        return CliOutput(code, out.getvalue())

    def _written_files(self, argv: list[str]) -> dict:
        if "--out" not in argv:
            return {}
        path = argv[argv.index("--out") + 1]
        with open(path, encoding="utf-8") as fh:
            return {path: fh.read()}

    def reference_entry(self, op: Op, output: CliOutput) -> dict:
        argv = op.inputs[0]
        return {"exit": output.code, "stdout": output.stdout, "files": self._written_files(argv)}

    def verify(self, op: Op, output: CliOutput) -> list[str]:
        argv = op.inputs[0]
        errors: list[str] = []
        if op.key is not None:
            want = self.reference.get(op.key)
            if want is None:
                return [f"reference table has no entry {op.key!r}"]
            got = self.reference_entry(op, output)
            if got["exit"] != want["exit"]:
                errors.append(f"{op.key}: exit {got['exit']}, expected {want['exit']}")
            gate.compare_text(got["stdout"], want["stdout"], errors, op.key)
            if sorted(got["files"]) != sorted(want["files"]):
                errors.append(f"{op.key}: wrote {sorted(got['files'])}")
            for path, text in want["files"].items():
                gate.compare_text(got["files"].get(path, ""), text, errors, path)
            return errors
        if output.code != 0:
            return [f"{' '.join(argv)}: exit {output.code}"]
        d, n, mult = op.inputs[1]
        command = argv[0]
        path = argv[argv.index("--out") + 1] if command == "random" else argv[1]
        doc, kraus = _file_instrument(path)
        if command == "random":
            shape_ok = (doc["d_in"], doc["d_out"], len(kraus)) == (d, d, n)
            if not (shape_ok and all(len(k) == mult for k in kraus)):
                errors.append(f"{path}: wrong shape")
            total = sum(e.conj().T @ e for ks in kraus for e in ks)
            if not float(np.max(np.abs(total - np.eye(d)))) <= 1e-9:
                errors.append(f"{path}: not trace preserving")
            if output.stdout != f"wrote instrument to {path}\n":
                errors.append(f"{path}: unexpected output {output.stdout!r}")
        elif command == "validate":
            fields = dict(line.split(None, 1) for line in output.stdout.splitlines()[:3])
            if fields.get("passed") != "yes" or fields.get("dims_ok") != "yes":
                errors.append(f"validate {path}: {output.stdout!r}")
        else:
            got = json.loads(output.stdout)
            iota = gate.oracle_balance(kraus, np.eye(d) / d)["iota"]
            gate.compare_values(got, {"iota": iota, "n_trials": int(HOLEVO_TRIALS)}, errors)
            if not got["max_classical_mi"] <= got["iota"] + 1e-9:
                errors.append(f"Holevo bound violated: {got}")
            if not abs(got["margin"] - (got["iota"] - got["max_classical_mi"])) <= 1e-12:
                errors.append(f"Holevo margin inconsistent: {got}")
        return errors


WORKLOADS = {w.name: w for w in (DenseScale, SmallSweep, CliMix)}
