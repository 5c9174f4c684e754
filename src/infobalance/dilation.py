"""Indirect-measurement extension of an instrument, built explicitly.

The instrument is realized as a single isometry from the input space into
output ⊗ outcome-register ⊗ multiplicity spaces.  Applying it to the
purified input and conditioning on the register value gives one pure state
per outcome on [R, Qp, App]; averaging with the register recorded gives the
dense joint state on [R, Qp, App, X], whose side is d_R·d_out·mult·n.
:mod:`infobalance.measures` never builds it: it reads the same entropies
from per-outcome spectra.  This module is the explicit construction, for
callers who want the states themselves and for tests that check the
measures against entropies of the joint state.  The apparatus initial state
and the explicit system-apparatus unitary are never materialized: all
derived quantities depend only on the isometry, and
:func:`unitary_completion` provides an explicit unitary when one is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
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
