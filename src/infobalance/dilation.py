"""Reference module: the explicit indirect-measurement dilation, and the
label-based entropic functionals that read the measures off its states.

The instrument is realized as a single isometry from the input space into
output ⊗ outcome-register ⊗ multiplicity spaces.  Applying it to the
purified input and conditioning on the register value gives one pure state
per outcome on [R, Qp, App]; averaging with the register recorded gives the
dense joint state on [R, Qp, App, X], whose side is d_R·d_out·mult·n.  The
engine never imports this module: :mod:`infobalance.measures` reads the same
entropies from per-outcome spectra.  This module is for callers who want the
states themselves and for tests that check the engine against them; its
:func:`von_neumann_entropy` shares no code with the engine's kernels and has
no cutoff, so a cutoff defect in the engine shows as a disagreement.  The
apparatus initial state and the explicit system-apparatus unitary are never
materialized: all derived quantities depend only on the isometry, and
:func:`unitary_completion` provides an explicit unitary when one is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadDistribution,
    DimensionMismatch,
    DuplicateLabel,
    LabelOverlap,
    NotIsometry,
    UnknownLabel,
    UnknownOutcome,
    ZeroProbabilityOutcome,
)
from .objects import (
    PROB_EPS,
    Instrument,
    PurifiedInput,
    _check_input_state,
    purify,
    require_valid,
)
from .tensors import LabeledState, Subsystem, partial_trace

REFERENCE = "R"
OUTPUT = "Qp"
APPARATUS = "App"
REGISTER = "X"


@dataclass(frozen=True, eq=False)
class DilationBundle:
    """Isometry, conditional pure states, probabilities, and joint state.

    ``conditional_states[i]`` is the pure state on [R, Qp, App] conditioned
    on outcome ``outcome_labels[i]`` (``None`` when the outcome has
    probability at or below 1e-12).  ``theta_full`` is the probability-
    weighted sum of the conditionals tagged by the register X.
    """

    isometry: np.ndarray
    outcome_labels: tuple[str, ...]
    probs: np.ndarray
    conditional_states: tuple[LabeledState | None, ...]
    theta_full: LabeledState

    def outcome_index(self, label: str) -> int:
        try:
            return self.outcome_labels.index(label)
        except ValueError:
            raise UnknownOutcome(
                f"no outcome {label!r}; have {self.outcome_labels}"
            ) from None


def dilate(instr: Instrument, inp: PurifiedInput) -> DilationBundle:
    """Build the isometry V = sum_{m,k} E_{m,k} ⊗ |m> ⊗ |k> and act on the input.

    Conditional states are computed per outcome (never by slicing the global
    matrix) so memory stays at one (d_R·d_out·mult)² block per outcome.
    """
    require_valid(instr)
    _check_input_state(instr, inp.rho)
    d_r, d_out = inp.r_dim, instr.d_out
    n = instr.n_outcomes
    mult = instr.max_multiplicity
    psi = inp.psi_matrix

    labels3 = (
        Subsystem(REFERENCE, d_r),
        Subsystem(OUTPUT, d_out),
        Subsystem(APPARATUS, mult),
    )
    d3 = d_r * d_out * mult
    probs = np.zeros(n)
    conds: list[LabeledState | None] = []
    theta = np.zeros((d3 * n, d3 * n), dtype=complex)
    # X is the last factor, so outcome m owns rows and columns m, m + n, ...
    register_blocks = theta.reshape(d3, n, d3, n)
    for idx, om in enumerate(instr.outcomes):
        t = np.zeros((d_r, d_out, mult), dtype=complex)
        for k, e in enumerate(om.kraus):
            t[:, :, k] = psi @ e.T
        flat = t.reshape(-1)
        p = float(np.real(np.vdot(flat, flat)))
        probs[idx] = p
        if p <= PROB_EPS:
            conds.append(None)
            continue
        outer = np.outer(flat, flat.conj())
        conds.append(LabeledState(labels3, outer / p, validate=False))
        register_blocks[:, idx, :, idx] = outer
    theta_full = LabeledState(
        labels3 + (Subsystem(REGISTER, n),), theta, validate=False
    )

    v_tensor = np.zeros((d_out, n, mult, instr.d_in), dtype=complex)
    for m, om in enumerate(instr.outcomes):
        for k, e in enumerate(om.kraus):
            v_tensor[:, m, k, :] = e
    isometry = v_tensor.reshape(d_out * n * mult, instr.d_in)
    isometry.setflags(write=False)
    probs.setflags(write=False)

    return DilationBundle(
        isometry=isometry,
        outcome_labels=instr.outcome_labels,
        probs=probs,
        conditional_states=tuple(conds),
        theta_full=theta_full,
    )


def reduced(
    bundle: DilationBundle, keep: list[str], outcome: str | None = None
) -> LabeledState:
    """Reduced state of the joint state, or of one conditional pure state."""
    if outcome is None:
        return partial_trace(bundle.theta_full, keep)
    idx = bundle.outcome_index(outcome)
    cond = bundle.conditional_states[idx]
    if cond is None:
        raise ZeroProbabilityOutcome(
            f"outcome {outcome!r} has probability {bundle.probs[idx]:.3e}"
        )
    if REGISTER in keep:
        raise UnknownLabel("conditional states carry no register subsystem X")
    return partial_trace(cond, keep)


def unitary_completion(isometry) -> np.ndarray:
    """Extend an isometry V to a square unitary whose first columns equal V."""
    v = np.asarray(isometry, dtype=complex)
    if v.ndim != 2 or v.shape[0] < v.shape[1]:
        raise NotIsometry(f"expected a tall matrix, got shape {v.shape}")
    rows, cols = v.shape
    dev = float(np.max(np.abs(v.conj().T @ v - np.eye(cols))))
    if dev > 1e-9:
        raise NotIsometry(f"V†V deviates from identity by {dev:.3e}")
    if rows == cols:
        return v.copy()
    complement = np.eye(rows) - v @ v.conj().T
    w, vecs = np.linalg.eigh((complement + complement.conj().T) / 2.0)
    basis = vecs[:, w > 0.5]
    return np.hstack([v, basis])


def von_neumann_entropy(state: LabeledState) -> float:
    """Entropy in bits from plain ``eigvalsh``: negative round-off is clipped
    to 0, 0·log 0 = 0, and no eigenvalue is cut off."""
    w = np.clip(np.linalg.eigvalsh(state.matrix), 0.0, None)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w))) + 0.0


def tensor_product(a: LabeledState, b: LabeledState) -> LabeledState:
    """Kronecker product; output labels are ``a``'s followed by ``b``'s."""
    shared = {lab.name for lab in a.labels} & {lab.name for lab in b.labels}
    if shared:
        raise DuplicateLabel(f"label names {sorted(shared)} appear on both factors")
    return LabeledState(
        a.labels + b.labels,
        np.kron(a.matrix, b.matrix),
        subnormalized=a.subnormalized or b.subnormalized,
        validate=False,
    )


def theta_state(instr: Instrument, rho: LabeledState) -> LabeledState:
    """Output-plus-register state sum_m E_m(rho) ⊗ |m><m| on [Qp, X].

    The register X has one basis vector per outcome, indexed by list
    position; blocks between different register values are exactly zero.
    """
    require_valid(instr)
    _check_input_state(instr, rho)
    n, d_out = instr.n_outcomes, instr.d_out
    theta = np.zeros((d_out * n, d_out * n), dtype=complex)
    register_blocks = theta.reshape(d_out, n, d_out, n)
    for idx, om in enumerate(instr.outcomes):
        register_blocks[:, idx, :, idx] = om.apply(rho.matrix)
    labels = (Subsystem(OUTPUT, d_out), Subsystem(REGISTER, n))
    return LabeledState(labels, theta, validate=False)


def _clip_nonneg(x: float) -> float:
    """Zero out round-off negatives of a nonnegative quantity; values below
    -1e-9 pass through, so genuine violations stay visible."""
    return 0.0 if -1e-9 <= x < 0.0 else x


def _disjoint(*groups: Sequence[str]) -> None:
    seen: set[str] = set()
    for g in groups:
        g = set(g)
        if g & seen:
            raise LabelOverlap(f"label groups overlap on {sorted(g & seen)}")
        seen |= g


def _entropy_on(state: LabeledState, *groups: Sequence[str]) -> float:
    """Entropy of the marginal of ``state`` on the union of the label groups."""
    return von_neumann_entropy(partial_trace(state, [name for g in groups for name in g]))


def mutual_information(
    state: LabeledState, part_a: Sequence[str], part_b: Sequence[str]
) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) in bits; labels outside A,B are traced out."""
    _disjoint(part_a, part_b)
    return _clip_nonneg(
        _entropy_on(state, part_a) + _entropy_on(state, part_b)
        - _entropy_on(state, part_a, part_b)
    )


def conditional_mutual_information(
    state: LabeledState,
    part_a: Sequence[str],
    part_b: Sequence[str],
    part_c: Sequence[str],
) -> float:
    """I(A:B|C) = S(AC) + S(BC) - S(ABC) - S(C) in bits."""
    _disjoint(part_a, part_b, part_c)
    return _clip_nonneg(
        _entropy_on(state, part_a, part_c) + _entropy_on(state, part_b, part_c)
        - _entropy_on(state, part_a, part_b, part_c) - _entropy_on(state, part_c)
    )


def coherent_information(
    state: LabeledState, from_labels: Sequence[str], to_labels: Sequence[str]
) -> float:
    """I_c(A -> B) = S(B) - S(AB) in bits; may be negative."""
    _disjoint(from_labels, to_labels)
    return _entropy_on(state, to_labels) - _entropy_on(state, from_labels, to_labels)


def chi_quantity(ensemble: Sequence[tuple[float, LabeledState]]) -> float:
    """Holevo chi = S(sum_i p_i rho_i) - sum_i p_i S(rho_i) in bits."""
    if not ensemble:
        raise BadDistribution("empty ensemble")
    probs = np.array([p for p, _ in ensemble], dtype=float)
    if float(probs.min()) < -PROB_EPS:
        raise BadDistribution(f"negative ensemble weight {probs.min():.3e}")
    if abs(float(probs.sum()) - 1.0) > 1e-9:
        raise BadDistribution(f"ensemble weights sum to {probs.sum()}, expected 1")
    dims = {s.dim for _, s in ensemble}
    if len(dims) != 1:
        raise BadDistribution(f"ensemble members have mixed dimensions {sorted(dims)}")
    avg = sum(p * s.matrix for p, s in ensemble)
    mean_entropy = sum(p * von_neumann_entropy(s) for p, s in ensemble)
    avg_state = LabeledState(ensemble[0][1].labels, avg, validate=False)
    return _clip_nonneg(von_neumann_entropy(avg_state) - mean_entropy)


def entanglement_fidelity(rho: LabeledState, kraus: tuple[np.ndarray, ...]) -> float:
    """F_e(rho, channel) = <Psi| (id ⊗ channel)(Psi) |Psi> with the canonical
    purification Psi of rho; independent of the purifying basis.  The
    reference for :func:`infobalance.recovery.corrected_fidelity`."""
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
