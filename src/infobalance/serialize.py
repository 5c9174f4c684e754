"""Canonical UTF-8 JSON text serialization.

Complex numbers are two-element ``[re, im]`` arrays and matrices are
row-major nested arrays.  Writing is hand-rolled so every float carries 17
significant digits and output bytes are deterministic; reading goes through
the stdlib ``json`` parser and re-checks the domain invariants.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InfoBalanceError, ParseError
from .objects import Instrument, OutcomeMap
from .tensors import LabeledState, Subsystem

#: the least integer that rounds past the largest float
_INT_LIMIT = 2**1024 - 2**970


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise ParseError(f"cannot serialize non-finite float {x}")
    return format(float(x), ".17g")


def dumps_json(obj) -> str:
    """Serialize dicts/lists/str/numbers with full-precision floats."""
    return _emit(obj) + "\n"


class _Fragment(str):
    """JSON text that :func:`_emit` writes as it is."""


def _emit(obj) -> str:
    if type(obj) is _Fragment:
        return obj
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_emit(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    raise ParseError(f"cannot serialize object of type {type(obj).__name__}")


def _matrix_out(m: np.ndarray) -> _Fragment:
    """The row-major ``[re, im]`` arrays of ``m``, formatted as :func:`_emit`
    formats the nested lists of floats."""
    parts = np.ascontiguousarray(m, dtype=complex).view(float)
    values = parts.ravel().tolist()
    if not np.isfinite(parts).all():  # raise the writer's message for the first one
        _fmt_float(next(x for x in values if not np.isfinite(x)))
    row = "[" + ", ".join(["[%.17g, %.17g]"] * (parts.shape[1] // 2)) + "]"
    return _Fragment(("[" + ", ".join([row] * parts.shape[0]) + "]") % tuple(values))


def _loads(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _fields(doc: dict, *keys: str) -> list:
    """The values of ``keys`` in ``doc``; a missing one is a parse error."""
    for key in keys:
        if key not in doc:
            raise ParseError(f"missing field {key!r}")
    return [doc[key] for key in keys]


def _expect(node, typ, where: str):
    if type(node) is not typ:  # not isinstance: bool subclasses int
        raise ParseError(
            f"field {where!r}: expected {typ.__name__}, got {type(node).__name__}"
        )
    return node


def _matrix_in(node, where: str) -> np.ndarray:
    rows = _expect(node, list, where)
    if not rows:
        raise ParseError(f"field {where!r}: empty matrix")
    width = None
    for i, row in enumerate(rows):
        if type(row) is not list:
            _expect(row, list, f"{where}[{i}]")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"field {where!r}: row {i} has ragged length")
        for j, z in enumerate(row):
            if type(z) is not list or len(z) != 2 or (
                type(z[0]) is not float and type(z[0]) is not int
                or type(z[1]) is not float and type(z[1]) is not int
            ):
                _expect(z, list, f"{where}[{i}][{j}]")
                raise ParseError(f"field {where!r}[{i}][{j}]: complex entries are [re, im]")
    try:
        values = np.array(rows, dtype=float)
    except OverflowError:
        i, j = next((i, j) for i, row in enumerate(rows) for j, z in enumerate(row)
                    if any(type(t) is int and abs(t) >= _INT_LIMIT for t in z))
        raise ParseError(f"field {where!r}[{i}][{j}]: integer too large for a float") from None
    return values.view(complex).reshape(len(rows), width)


# -- instruments -------------------------------------------------------------

def dumps_instrument(instr: Instrument) -> str:
    outcomes = [{"label": o.label, "kraus": [_matrix_out(k) for k in o.kraus]}
                for o in instr.outcomes]
    return dumps_json({"d_in": instr.d_in, "d_out": instr.d_out, "outcomes": outcomes})


def loads_instrument(text: str, validate_invariants: bool = True) -> Instrument:
    doc = _expect(_loads(text), dict, "<root>")
    d_in, d_out, onodes = _fields(doc, "d_in", "d_out", "outcomes")
    d_in = _expect(d_in, int, "d_in")
    d_out = _expect(d_out, int, "d_out")
    outcomes = []
    for i, onode in enumerate(_expect(onodes, list, "outcomes")):
        onode = _expect(onode, dict, f"outcomes[{i}]")
        label = _expect(onode.get("label"), str, f"outcomes[{i}].label")
        knode = _expect(onode.get("kraus"), list, f"outcomes[{i}].kraus")
        if not knode:
            raise ParseError(f"outcomes[{i}].kraus: empty Kraus list")
        kraus = tuple(
            _matrix_in(k, f"outcomes[{i}].kraus[{j}]") for j, k in enumerate(knode)
        )
        outcomes.append(OutcomeMap(label, kraus))
    try:
        instr = Instrument(d_in, d_out, tuple(outcomes))
    except InfoBalanceError as exc:
        raise ParseError(str(exc)) from exc
    if validate_invariants and not instr.validation_report.passed:
        issues = "; ".join(instr.validation_report.issues)
        raise ParseError(f"instrument invariant violated: {issues}")
    return instr


# -- states -------------------------------------------------------------------

def dumps_state(state: LabeledState) -> str:
    doc = {
        "labels": [{"name": lab.name, "dim": lab.dim} for lab in state.labels],
        "matrix": _matrix_out(state.matrix),
    }
    return dumps_json(doc)


def loads_state(text: str) -> LabeledState:
    doc = _expect(_loads(text), dict, "<root>")
    lnodes, matrix = _fields(doc, "labels", "matrix")
    labels = []
    for i, lnode in enumerate(_expect(lnodes, list, "labels")):
        lnode = _expect(lnode, dict, f"labels[{i}]")
        name = _expect(lnode.get("name"), str, f"labels[{i}].name")
        dim = _expect(lnode.get("dim"), int, f"labels[{i}].dim")
        try:
            labels.append(Subsystem(name, dim))
        except InfoBalanceError as exc:
            raise ParseError(f"labels[{i}]: {exc}") from exc
    matrix = _matrix_in(matrix, "matrix")
    try:
        return LabeledState(tuple(labels), matrix)
    except InfoBalanceError as exc:
        raise ParseError(f"state invariant violated: {exc}") from exc
