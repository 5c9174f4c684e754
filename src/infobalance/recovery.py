"""Outcome-conditioned recovery channels and fidelity bounds.

For every outcome the transpose (Petz) channel
``sigma -> rho^{1/2} E† (E_m(rho))^{-1/2} sigma (E_m(rho))^{-1/2} E rho^{1/2}``
is built, completed to trace preservation by sending the kernel of E_m(rho)
to rho.  A family is built from the pair's analysis in
:mod:`infobalance.measures` (its eigh of rho, products E_k rho, posteriors
E_m(rho) and weights p_m): one stacked eigh of the posteriors, then each
outcome's channel from its own Kraus run and kernel rows, on the purification's
support of rho; each posterior's kernel follows from its eigh's backward error.
The corrected channel sum_m R_m ∘ E_m has entanglement fidelity
F = sum_m sum_{R in R_m, E in E_m} |Tr(rho R E)|², one product per outcome;
:func:`infobalance.dilation.entanglement_fidelity` is its reference.
Disturbance <= eps guarantees F >= 1 - 4*sqrt(eps) for this family (the
optimal family achieves 1 - 2*sqrt(eps)), and a Fano-type converse bounds
the disturbance by a function of 1 - F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadDistribution, DimensionMismatch, DuplicateLabel, InvalidInstrument,
                     MissingOutcome, ZeroProbabilityOutcome)
from .measures import _analysis, _support_cut, binary_entropy, disturbance
from .objects import TP_ATOL, Instrument
from .tensors import LabeledState, _hermitian, _on_support


@dataclass(frozen=True, eq=False)
class RecoveryFamily:
    """One recovery channel (Kraus list, output -> input) per outcome label;
    labels are distinct and no channel is empty."""

    outcome_labels: tuple[str, ...]
    channels: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self) -> None:
        labels, k, n = self.outcome_labels, len(self.outcome_labels), len(self.channels)
        if n != k:
            raise DimensionMismatch(f"channels[{min(k, n)}]: {k} labels and {n} channels")
        for i, (label, kraus) in enumerate(zip(labels, self.channels)):
            if labels.index(label) < i:
                raise DuplicateLabel(f"channels[{i}]: outcome {label!r} has a channel already")
            if len(kraus) == 0:
                raise InvalidInstrument(f"channels[{i}]: outcome {label!r} has no Kraus operators")

    def channel(self, label: str) -> tuple[np.ndarray, ...]:
        if label not in self.outcome_labels:
            raise MissingOutcome(f"family has no channel for outcome {label!r}")
        return self.channels[self.outcome_labels.index(label)]


def _transpose_channels(group, pick) -> list[tuple]:
    """The Kraus list of each outcome of ``pick``, from its own Kraus run: its
    transpose channel, completed by re-preparing rho on the kernel of
    E_m(rho), or only that re-preparation on the whole output where p_m ~ 0.
    Every outcome goes through one stacked ``eigh``; one of p_m ~ 0 is then
    given eigenvalues 0 and the standard basis, so its kernel is the output."""
    (w, v), kraus, starts = (x[0] for x in group.eigh), group.kraus[0], group.starts
    sigmas, live, cut = group.posteriors[0], group.weights[0] > 0.0, _support_cut(w)
    keep = w > cut  # sqrt(rho) and the re-preparation keep the purification's support
    sqrt_rho, roots = _on_support(w, v, np.sqrt, cut), np.sqrt(w[keep])[:, None, None, None]
    vectors = v[:, keep].T[:, None, :, None]  # v_i on the third axis of (root, row, in, out)
    ks = [group.mults[m] if live[m] else 0 for m in pick]  # recovery operators
    w, v = np.linalg.eigh(_hermitian(sigmas[list(pick)]))
    onto = v.conj().swapaxes(1, 2)  # rows k_j† of the bases
    if 0 in ks:  # most pairs have no such outcome, and masked writes cost more than the test
        dead = np.equal(ks, 0)
        w[dead], onto[dead] = 0.0, np.eye(sigmas.shape[1])
    # the kernel: each x where eigh's backward error d_out·eps·lambda_max, scaled by 1/x
    # through x^{-1/2}, would put the channel's TP error at TP_ATOL or more
    cut = sigmas.shape[1] * np.finfo(float).eps * w[:, -1:] / TP_ATOL
    inv_sqrt = _on_support(w, v, lambda x: x ** -0.5, cut)
    sizes = (w <= cut).sum(axis=1).tolist()  # eigh's w ascend, so each kernel is a prefix
    channels = []
    for m, k, inv_sqrt_m, onto_m, q in zip(pick, ks, inv_sqrt, onto, sizes):
        recovery = sqrt_rho @ kraus[starts[m] : starts[m] + k].conj().swapaxes(1, 2) @ inv_sqrt_m
        reprepare = vectors * onto_m[None, :q, None, :]  # v_i k_j† of root i and row j,
        np.multiply(roots, reprepare, out=reprepare)  # then times sqrt(w_i)
        channels.append((*recovery, *reprepare.reshape(-1, *reprepare.shape[2:])))
    return channels


def petz_recovery(instr: Instrument, rho: LabeledState, outcome: str) -> tuple[np.ndarray, ...]:
    """Transpose-channel recovery for one outcome, completed to trace
    preservation by re-preparing ``rho`` on the kernel of E_m(rho)."""
    group, m = _analysis(instr, rho), instr.outcome_index(outcome)
    if not group.weights[0, m] > 0.0:
        p = group.probs[0, m]
        raise ZeroProbabilityOutcome(f"outcome {outcome!r} has probability {p:.3e}")
    return _transpose_channels(group, [m])[0]


def petz_family(instr: Instrument, rho: LabeledState) -> RecoveryFamily:
    """Transpose-channel family covering every outcome; an outcome of
    probability ~0 re-prepares rho, so the composite stays trace preserving."""
    channels = _transpose_channels(_analysis(instr, rho), range(instr.n_outcomes))
    return RecoveryFamily(instr.outcome_labels, tuple(channels))


def corrected_fidelity(instr: Instrument, rho: LabeledState, family: RecoveryFamily) -> float:
    """Entanglement fidelity of the composite channel sum_m R_m ∘ E_m, read
    as sum over R in R_m, E in E_m of |Tr(rho R E)|²."""
    group, total, shape = _analysis(instr, rho), 0.0, (instr.d_in, instr.d_out)
    mapped = group.mapped[0]
    for m, (om, start, k) in enumerate(zip(instr.outcomes, group.starts, group.mults)):
        if om.label not in family.outcome_labels:
            if group.weights[0, m] > 0.0:
                raise MissingOutcome(f"recovery family misses outcome {om.label!r} "
                                     f"with p = {group.probs[0, m]:.3e}")
            continue
        try:
            recovery = np.asarray(family.channel(om.label), dtype=complex)
        except (TypeError, ValueError):
            raise DimensionMismatch(f"outcome {om.label!r}: non-numeric or ragged") from None
        if recovery.shape[1:] != shape:
            raise DimensionMismatch(f"recovery Kraus shape {recovery.shape[1:]} is not {shape}")
        if not (finite := np.isfinite(recovery)).all():
            raise InvalidInstrument(f"non-finite entries: outcome {om.label!r} "
                                    f"Kraus {np.argmin(finite.all(axis=(1, 2)))}")
        # Tr(rho R E) = vec(R) . vec((E rho)^T), without conjugation
        e_rho_t = mapped[start : start + k].transpose(0, 2, 1).reshape(k, -1)
        amps = recovery.reshape(-1, e_rho_t.shape[1]) @ e_rho_t.T
        total += float((np.abs(amps) ** 2).sum())
    return total


def correction_thresholds(delta: float, fidelity: float) -> tuple[float, float, bool, bool]:
    """The corrected-fidelity thresholds 1 - 2*sqrt(delta) (optimal family)
    and 1 - 4*sqrt(delta) (transpose channel), a negative delta read as 0,
    and whether ``fidelity`` meets each within a slack of 1e-9."""
    root = math.sqrt(max(delta, 0.0))
    bound2, bound4 = 1.0 - 2.0 * root, 1.0 - 4.0 * root
    return bound2, bound4, fidelity >= bound2 - 1e-9, fidelity >= bound4 - 1e-9


@dataclass(frozen=True)
class FanoCheck:
    """Disturbance against the Fano-type bound on the fidelity deficit."""

    delta: float
    fidelity: float
    bound: float
    holds: bool


def fano_bound_check(instr: Instrument, rho: LabeledState, family: RecoveryFamily, *,
                     delta: float | None = None) -> FanoCheck:
    """Check delta <= f(1 - F_e) for f(x) = 2*[h2(x) + x*log2(d^2 - 1)].

    ``f`` is the standard entropy-exchange bound with d the input dimension;
    it is a sanity property of any recovery family, not a tight bound.  A
    precomputed ``delta`` may be passed to avoid re-deriving it.
    """
    if delta is None:
        delta = disturbance(instr, rho)
    elif not np.isfinite(delta):
        raise BadDistribution(f"disturbance {delta!r} is not finite")
    fidelity = corrected_fidelity(instr, rho, family)
    x = min(max(1.0 - fidelity, 0.0), 1.0)
    d = instr.d_in
    bound = 2.0 * binary_entropy(x)
    if d >= 2:
        bound += 2.0 * x * float(np.log2(d * d - 1))
    return FanoCheck(delta, fidelity, bound, holds=delta <= bound + 1e-9)
