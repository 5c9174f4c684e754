"""Outcome-conditioned recovery channels and fidelity bounds.

For every outcome the transpose (Petz) channel
``sigma -> rho^{1/2} E† (E_m(rho))^{-1/2} sigma (E_m(rho))^{-1/2} E rho^{1/2}``
is built, with a completion branch that sends the kernel of E_m(rho) to rho
so the channel is trace preserving.  Composing each recovery with its
outcome map gives a corrected channel whose entanglement fidelity certifies
how reversible the measurement was: disturbance <= eps guarantees a
corrected fidelity of at least 1 - 4*sqrt(eps) for this family (the optimal
family achieves 1 - 2*sqrt(eps); the transpose channel is at most
quadratically worse).  A Fano-type converse bounds the disturbance by a
function of the fidelity deficit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    MissingOutcome,
    ZeroProbabilityOutcome,
)
from .measures import binary_entropy, disturbance
from .objects import PROB_EPS, Instrument, _check_input_state, purify, require_valid
from .tensors import LabeledState, SUPPORT_CUTOFF, func_on_support


@dataclass(frozen=True, eq=False)
class RecoveryFamily:
    """One recovery channel (Kraus list, output -> input) per outcome."""

    outcome_labels: tuple[str, ...]
    channels: tuple[tuple[np.ndarray, ...], ...]
    completion_flags: tuple[bool, ...]

    def channel(self, label: str) -> tuple[np.ndarray, ...]:
        try:
            return self.channels[self.outcome_labels.index(label)]
        except ValueError:
            raise MissingOutcome(f"family has no channel for outcome {label!r}") from None


def _kernel_basis(matrix: np.ndarray) -> np.ndarray:
    m = (matrix + matrix.conj().T) / 2.0
    w, v = np.linalg.eigh(m)
    return v[:, w <= SUPPORT_CUTOFF]


def _reprepare_kraus(rho: np.ndarray, onto: np.ndarray) -> list[np.ndarray]:
    """Kraus operators of sigma -> Tr[Pi sigma] * rho for Pi = onto basis."""
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    out = []
    for i in range(w.size):
        if w[i] <= PROB_EPS:
            continue
        for j in range(onto.shape[1]):
            out.append(np.sqrt(w[i]) * np.outer(v[:, i], onto[:, j].conj()))
    return out


def _petz_kraus(
    kraus: tuple[np.ndarray, ...],
    sigma: np.ndarray,
    rho: np.ndarray,
    sqrt_rho: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Transpose channel of the outcome map with Kraus list ``kraus`` and
    E_m(rho) = sigma, completed by re-preparing ``rho`` on sigma's kernel."""
    inv_sqrt = func_on_support(sigma, lambda x: x ** -0.5)
    recovery = [sqrt_rho @ e.conj().T @ inv_sqrt for e in kraus]
    kernel = _kernel_basis(sigma)
    if kernel.shape[1]:
        recovery.extend(_reprepare_kraus(rho, kernel))
    return tuple(recovery)


def petz_recovery(instr: Instrument, rho: LabeledState, outcome: str) -> tuple[np.ndarray, ...]:
    """Transpose-channel recovery for one outcome, completed to trace
    preservation by re-preparing ``rho`` on the kernel of E_m(rho)."""
    require_valid(instr)
    _check_input_state(instr, rho)
    om = instr.outcome(outcome)
    sigma = om.apply(rho.matrix)
    p = float(np.trace(sigma).real)
    if p <= PROB_EPS:
        raise ZeroProbabilityOutcome(f"outcome {outcome!r} has probability {p:.3e}")
    sqrt_rho = func_on_support(rho.matrix, np.sqrt)
    return _petz_kraus(om.kraus, sigma, rho.matrix, sqrt_rho)


def petz_family(instr: Instrument, rho: LabeledState) -> RecoveryFamily:
    """Transpose-channel family covering every outcome.

    Outcomes of probability ~0 get a pure re-preparation channel so the
    composite corrected channel stays trace preserving.
    """
    require_valid(instr)
    _check_input_state(instr, rho)
    sqrt_rho = func_on_support(rho.matrix, np.sqrt)
    labels, channels, flags = [], [], []
    for om in instr.outcomes:
        sigma = om.apply(rho.matrix)
        p = float(np.trace(sigma).real)
        labels.append(om.label)
        if p <= PROB_EPS:
            onto = np.eye(instr.d_out)
            channels.append(tuple(_reprepare_kraus(rho.matrix, onto)))
            flags.append(True)
            continue
        kraus = _petz_kraus(om.kraus, sigma, rho.matrix, sqrt_rho)
        channels.append(kraus)
        flags.append(len(kraus) > om.multiplicity)
    return RecoveryFamily(tuple(labels), tuple(channels), tuple(flags))


def entanglement_fidelity(rho: LabeledState, kraus: tuple[np.ndarray, ...]) -> float:
    """F_e(rho, channel) = <Psi| (id ⊗ channel)(Psi) |Psi> with the canonical
    purification Psi of rho; independent of the purifying basis."""
    d = rho.dim
    for k in kraus:
        k = np.asarray(k)
        if k.shape != (d, d):
            raise DimensionMismatch(
                f"channel Kraus shape {k.shape} is not ({d}, {d})"
            )
    psi = purify(rho).psi_matrix
    total = 0.0
    for k in kraus:
        amp = np.vdot(psi, psi @ np.asarray(k, dtype=complex).T)
        total += float(np.abs(amp)) ** 2
    return total


def corrected_fidelity(
    instr: Instrument, rho: LabeledState, family: RecoveryFamily
) -> float:
    """Entanglement fidelity of the composite channel sum_m R_m ∘ E_m."""
    require_valid(instr)
    _check_input_state(instr, rho)
    composite: list[np.ndarray] = []
    for om in instr.outcomes:
        p = float(np.trace(om.apply(rho.matrix)).real)
        if om.label not in family.outcome_labels:
            if p > PROB_EPS:
                raise MissingOutcome(
                    f"recovery family misses outcome {om.label!r} with p = {p:.3e}"
                )
            continue
        for r in family.channel(om.label):
            for e in om.kraus:
                composite.append(np.asarray(r, dtype=complex) @ e)
    return entanglement_fidelity(rho, tuple(composite))


@dataclass(frozen=True)
class FanoCheck:
    """Disturbance against the Fano-type bound on the fidelity deficit."""

    delta: float
    fidelity: float
    bound: float
    holds: bool


def fano_bound_check(
    instr: Instrument,
    rho: LabeledState,
    family: RecoveryFamily,
    *,
    delta: float | None = None,
) -> FanoCheck:
    """Check delta <= f(1 - F_e) for f(x) = 2*[h2(x) + x*log2(d^2 - 1)].

    ``f`` is the standard entropy-exchange bound with d the input dimension;
    it is a sanity property of any recovery family, not a tight bound.  A
    precomputed ``delta`` may be passed to avoid re-deriving it.
    """
    if delta is None:
        delta = disturbance(instr, rho)
    fidelity = corrected_fidelity(instr, rho, family)
    x = min(max(1.0 - fidelity, 0.0), 1.0)
    d = instr.d_in
    bound = 2.0 * binary_entropy(x)
    if d >= 2:
        bound += 2.0 * x * float(np.log2(d * d - 1))
    return FanoCheck(
        delta=delta, fidelity=fidelity, bound=bound, holds=delta <= bound + 1e-9
    )
