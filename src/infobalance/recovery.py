"""Outcome-conditioned recovery channels and fidelity bounds.

For every outcome the transpose (Petz) channel
``sigma -> rho^{1/2} E† (E_m(rho))^{-1/2} sigma (E_m(rho))^{-1/2} E rho^{1/2}``
is built, completed to trace preservation by sending the kernel of E_m(rho)
to rho.  Every function here reads the (instrument, state) pair's analysis
from :mod:`infobalance.measures`, which the balance shares: an instrument is
validated once, a pair decomposes rho once (its square root and
re-preparation vectors here, the purification there) and forms the products
E_k rho once, and a family decomposes the posteriors E_m(rho) in one
stacked ``eigh`` (inverse square root on the support, kernel).
The corrected channel sum_m R_m ∘ E_m has entanglement fidelity
F = sum_m sum_{R in R_m, E in E_m} |Tr(rho R E)|², read from the pair's
E_k rho with one product per outcome;
:func:`infobalance.dilation.entanglement_fidelity` of the explicit composite
Kraus list is its reference.  Disturbance <= eps
guarantees F >= 1 - 4*sqrt(eps) for this family (the optimal family achieves
1 - 2*sqrt(eps); the transpose channel is at most quadratically worse), and
a Fano-type converse bounds the disturbance by a function of the fidelity
deficit 1 - F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MissingOutcome, ZeroProbabilityOutcome
from .measures import _analysis, binary_entropy, disturbance
from .objects import PROB_EPS, Instrument
from .tensors import LabeledState, SUPPORT_CUTOFF, _on_support, _on_support_eigh


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


def _input_spectrum(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """From the ascending ``eigh`` ``(w, v)`` of rho: its square root on the
    support, and the roots sqrt(w_i) and eigenvectors v_i of its eigenvalues
    above PROB_EPS, from which a channel re-prepares rho."""
    keep = w > PROB_EPS
    return _on_support(w, v, np.sqrt), np.sqrt(w[keep]), v[:, keep]


def _reprepare_kraus(roots, vectors, onto: np.ndarray) -> list[np.ndarray]:
    """Kraus operators of sigma -> Tr[Pi sigma] * rho for Pi = onto basis,
    with rho = sum_i roots_i² v_i v_i† over the columns v_i of ``vectors``."""
    return [s * np.outer(v, k.conj()) for s, v in zip(roots, vectors.T) for k in onto.T]


def _transpose_channels(outcomes, rho: np.ndarray, spectrum) -> list[tuple | None]:
    """The transpose channel of each outcome, completed by re-preparing
    ``rho`` on the kernel of E_m(rho); None where p_m ~ 0.  The posteriors
    of the outcomes that occur are decomposed by one stacked ``eigh``."""
    sigmas = [om.apply(rho) for om in outcomes]
    live = [i for i, sigma in enumerate(sigmas) if float(np.trace(sigma).real) > PROB_EPS]
    channels: list[tuple | None] = [None] * len(outcomes)
    if not live:
        return channels
    sqrt_rho, roots, vectors = spectrum
    inv_sqrt, w, v = _on_support_eigh(np.stack([sigmas[i] for i in live]), lambda x: x ** -0.5)
    for j, i in enumerate(live):
        recovery = [sqrt_rho @ e.conj().T @ inv_sqrt[j] for e in outcomes[i].kraus]
        recovery += _reprepare_kraus(roots, vectors, v[j][:, w[j] <= SUPPORT_CUTOFF])
        channels[i] = tuple(recovery)
    return channels


def petz_recovery(instr: Instrument, rho: LabeledState, outcome: str) -> tuple[np.ndarray, ...]:
    """Transpose-channel recovery for one outcome, completed to trace
    preservation by re-preparing ``rho`` on the kernel of E_m(rho)."""
    ctx = _analysis(instr, rho)
    om = instr.outcome(outcome)
    [kraus] = _transpose_channels([om], rho.matrix, _input_spectrum(*ctx.rho_eigh))
    if kraus is None:
        p = float(np.trace(om.apply(rho.matrix)).real)
        raise ZeroProbabilityOutcome(f"outcome {outcome!r} has probability {p:.3e}")
    return kraus


def petz_family(instr: Instrument, rho: LabeledState) -> RecoveryFamily:
    """Transpose-channel family covering every outcome.

    Outcomes of probability ~0 get a pure re-preparation channel so the
    composite corrected channel stays trace preserving.
    """
    spectrum = _input_spectrum(*_analysis(instr, rho).rho_eigh)
    channels, flags = [], []
    for om, kraus in zip(instr.outcomes, _transpose_channels(instr.outcomes, rho.matrix, spectrum)):
        flags.append(kraus is None or len(kraus) > om.multiplicity)
        channels.append(kraus or tuple(_reprepare_kraus(*spectrum[1:], np.eye(instr.d_out))))
    return RecoveryFamily(instr.outcome_labels, tuple(channels), tuple(flags))


def corrected_fidelity(
    instr: Instrument, rho: LabeledState, family: RecoveryFamily
) -> float:
    """Entanglement fidelity of the composite channel sum_m R_m ∘ E_m, read
    as sum over R in R_m, E in E_m of |Tr(rho R E)|²."""
    ctx = _analysis(instr, rho)
    mapped, total = ctx.mapped, 0.0
    for om, (start, k) in zip(instr.outcomes, ctx.blocks):
        if om.label not in family.outcome_labels:
            p = float(np.trace(om.apply(rho.matrix)).real)
            if p > PROB_EPS:
                raise MissingOutcome(
                    f"recovery family misses outcome {om.label!r} with p = {p:.3e}"
                )
            continue
        shape = (instr.d_in, instr.d_out)
        recovery = [np.asarray(r, dtype=complex) for r in family.channel(om.label)]
        for r in recovery:
            if r.shape != shape:
                raise DimensionMismatch(f"recovery Kraus shape {r.shape} is not {shape}")
        # Tr(rho R E) = vec(R) . vec((E rho)^T), without conjugation
        e_rho_t = mapped[start : start + k].transpose(0, 2, 1).reshape(k, -1)
        amps = np.reshape(recovery, (-1, e_rho_t.shape[1])) @ e_rho_t.T
        total += float(np.sum(np.abs(amps) ** 2))
    return total


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
    return FanoCheck(delta, fidelity, bound, holds=delta <= bound + 1e-9)
