"""Correctness gate: an independent oracle for the balance and the checks
every benchmark op must pass.

The oracle never calls the library.  It evaluates the information balance
from small per-outcome spectra (Schumacher, PRA 54, 2614, 1996): because the
conditional state on [R, Qp, App] is pure for each outcome m,

    S(R|m)    = S(sqrt(rho) P_m sqrt(rho) / p_m)
    S(Qp|m)   = S(E_m(rho) / p_m)
    S(App|m)  = S(W_m),  W_m[k, k'] = Tr(E_k rho E_k'^dagger) / p_m

and iota, delta, noise, iota_g and the outcome-averaged disturbance follow
from these without building the dense dilation.  The library computes the
same quantities from other matrices, so agreement within 1e-9 is a real
cross-check.
"""

from __future__ import annotations

import re

import numpy as np

#: values of measures.ROUTE_ATOL and measures.BALANCE_ATOL when the
#: benchmark was defined; kept here so the gate does not move with the code
ROUTE_ATOL = 1e-9
BALANCE_ATOL = 1e-9
#: agreement required between the library and the oracle or reference table
VALUE_ATOL = 1e-9
_ENTROPY_CUTOFF = 1e-12
_PROB_EPS = 1e-12


def _entropy(m: np.ndarray) -> float:
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    w = w[w > _ENTROPY_CUTOFF]
    return float(-np.sum(w * np.log2(w))) if w.size else 0.0


def oracle_balance(kraus_by_outcome, rho: np.ndarray) -> dict:
    """Expected report values for an instrument given as Kraus lists."""
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    s_in = _entropy(rho)
    # rows of `amps` are vec(E_{m,k} sqrt(rho)); their Gram matrix is the
    # entropy-exchange matrix of the whole instrument
    amps = np.array([(e @ sqrt_rho).ravel() for kraus in kraus_by_outcome for e in kraus])
    gram = amps @ amps.conj().T
    rows, start = [], 0
    iota = delta = noise = iota_g = 0.0
    output = np.zeros((kraus_by_outcome[0][0].shape[0],) * 2, dtype=complex)
    for kraus in kraus_by_outcome:
        block = gram[start : start + len(kraus), start : start + len(kraus)]
        start += len(kraus)
        sigma = sum(e @ rho @ e.conj().T for e in kraus)
        output += sigma
        p = float(np.trace(sigma).real)
        if p <= _PROB_EPS:
            continue
        povm = sum(e.conj().T @ e for e in kraus)
        s_r = _entropy(sqrt_rho @ povm @ sqrt_rho / p)
        s_q = _entropy(sigma / p)
        s_a = _entropy(block / p)
        row = (p, s_in - s_r, s_in - s_q + s_a, s_r + s_a - s_q)
        rows.append(row)
        iota += p * row[1]
        delta += p * row[2]
        noise += p * row[3]
        iota_g += p * (s_in - s_q)
    return {
        "iota": iota,
        "delta": delta,
        "noise": noise,
        "iota_g": iota_g,
        "dno": s_in - _entropy(output) + _entropy(gram),
        "per_outcome": rows,
    }


def instrument_kraus(instr) -> list[list[np.ndarray]]:
    return [[np.asarray(e) for e in om.kraus] for om in instr.outcomes]


def _close(name: str, got: float, want: float, errors: list[str]) -> None:
    if not abs(got - want) <= VALUE_ATOL:
        errors.append(f"{name}: got {got!r}, expected {want!r} (atol {VALUE_ATOL:g})")


def report_values(report) -> dict:
    """The values of a balance report that the gate and the reference table compare."""
    return {
        "iota": report.iota,
        "delta": report.delta,
        "noise": report.noise,
        "iota_g": report.iota_g,
        "per_outcome": [(r.p, r.iota_m, r.delta_m, r.noise_m) for r in report.per_outcome],
    }


def headroom(report) -> float:
    """Worst residual over its tolerance in one report (1.0 means at the limit)."""
    worst = report.residual_balance / BALANCE_ATOL
    for value in report.residual_routes.values():
        worst = max(worst, value / ROUTE_ATOL)
    return worst


def check_report(report, expected: dict, errors: list[str]) -> None:
    """Residuals within tolerance, iota <= delta, values match ``expected``."""
    if not report.residual_balance <= BALANCE_ATOL:
        errors.append(f"residual_balance {report.residual_balance!r} > {BALANCE_ATOL:g}")
    for key, value in report.residual_routes.items():
        if not value <= ROUTE_ATOL:
            errors.append(f"residual {key} {value!r} > {ROUTE_ATOL:g}")
    if not report.iota <= report.delta + 1e-9:
        errors.append(f"tradeoff violated: iota {report.iota!r} > delta {report.delta!r}")
    compare_values(report_values(report), expected, errors)


def compare_values(got: dict, want: dict, errors: list[str]) -> None:
    """Compare numbers and lists of numbers within VALUE_ATOL; every key of
    ``want`` must be present in ``got``."""
    for name, w in want.items():
        if name not in got:
            errors.append(f"{name}: missing")
        elif isinstance(w, (list, tuple)):
            flat_g, flat_w = np.ravel(np.asarray(got[name], float)), np.ravel(np.asarray(w, float))
            if flat_g.shape != flat_w.shape:
                errors.append(f"{name}: shape {flat_g.shape} != {flat_w.shape}")
                continue
            for i, (a, b) in enumerate(zip(flat_g, flat_w)):
                _close(f"{name}[{i}]", float(a), float(b), errors)
        else:
            _close(name, float(got[name]), float(w), errors)


# -- command-line output ---------------------------------------------------------

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _resolution(token: str) -> float:
    """Size of one unit in the last printed digit of a numeric token."""
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def compare_text(got: str, want: str, errors: list[str], name: str) -> None:
    """Text equal outside numbers; each number within 1e-9 plus one unit in
    its last printed digit, so a value printed to 6 decimals may round the
    other way after a change at the 1e-12 level."""
    got_words, want_words = _NUMBER.split(got), _NUMBER.split(want)
    got_nums, want_nums = _NUMBER.findall(got), _NUMBER.findall(want)
    if got_words != want_words or len(got_nums) != len(want_nums):
        errors.append(f"{name}: output text differs: {got[:200]!r} vs {want[:200]!r}")
        return
    for i, (g, w) in enumerate(zip(got_nums, want_nums)):
        tol = VALUE_ATOL + _resolution(w)
        if not abs(float(g) - float(w)) <= tol:
            errors.append(f"{name}: number {i} is {g}, expected {w} (tol {tol:g})")
