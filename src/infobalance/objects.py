"""Quantum instruments, POVMs, purifications, and random instances.

An :class:`Instrument` is a finite list of outcomes, each a completely
positive map given by Kraus operators from the input space to the output
space; the sum of all maps must be trace preserving.  Construction is
permissive so that defective instruments loaded from files can still be
inspected: hard validity is checked by :func:`validate` /
:func:`require_valid`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooSmall,
    DuplicateLabel,
    InvalidInstrument,
    InvalidPovm,
    InvalidState,
    UnknownOutcome,
    ZeroProbabilityOutcome,
)
from .tensors import LabeledState, Subsystem, eig_hermitian

#: max deviation tolerated for trace preservation / POVM completeness
TP_ATOL = 1e-8
#: outcomes with probability at or below this are treated as never occurring
PROB_EPS = 1e-12


def _operator(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"operators must be 2-D, got shape {m.shape}")
    m = m.copy()
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class OutcomeMap:
    """One measurement outcome: a label and the Kraus list of its CP map."""

    label: str
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.kraus:
            raise InvalidInstrument(f"outcome {self.label!r} has no Kraus operators")
        object.__setattr__(self, "kraus", tuple(_operator(k) for k in self.kraus))

    @property
    def multiplicity(self) -> int:
        return len(self.kraus)

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        """Unnormalized map action sum_k E_k M E_k†."""
        out = np.zeros((self.kraus[0].shape[0],) * 2, dtype=complex)
        for e in self.kraus:
            out += e @ matrix @ e.conj().T
        return out

    def povm_element(self) -> np.ndarray:
        """sum_k E_k† E_k."""
        d = self.kraus[0].shape[1]
        out = np.zeros((d, d), dtype=complex)
        for e in self.kraus:
            out += e.conj().T @ e
        return out


@dataclass(frozen=True, eq=False)
class Instrument:
    """Finite-outcome quantum instrument from a d_in to a d_out space."""

    d_in: int
    d_out: int
    outcomes: tuple[OutcomeMap, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        labels = [o.label for o in self.outcomes]
        if len(set(labels)) != len(labels):
            raise DuplicateLabel(f"duplicate outcome labels in {labels}")

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    @property
    def outcome_labels(self) -> tuple[str, ...]:
        return tuple(o.label for o in self.outcomes)

    @property
    def max_multiplicity(self) -> int:
        return max(o.multiplicity for o in self.outcomes)

    def outcome_index(self, label: str) -> int:
        for i, o in enumerate(self.outcomes):
            if o.label == label:
                return i
        raise UnknownOutcome(f"no outcome {label!r}; have {self.outcome_labels}")

    def outcome(self, label: str) -> OutcomeMap:
        return self.outcomes[self.outcome_index(label)]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking an instrument against its invariants."""

    passed: bool
    tp_deviation: float
    dims_ok: bool
    outcome_excess: dict[str, float]
    issues: tuple[str, ...]


def validate(instr: Instrument) -> ValidationReport:
    """Check dimensions, per-outcome CP trace-nonincrease, and global TP.

    Never raises; all failures are carried in the report.
    """
    issues: list[str] = []
    dims_ok = True
    if instr.d_in < 1 or instr.d_out < 1:
        dims_ok = False
        issues.append(f"dimensions: d_in={instr.d_in}, d_out={instr.d_out}")
    if not instr.outcomes:
        issues.append("instrument has no outcomes")
        return ValidationReport(False, float("inf"), dims_ok, {}, tuple(issues))
    for o in instr.outcomes:
        for j, e in enumerate(o.kraus):
            if e.shape != (instr.d_out, instr.d_in):
                dims_ok = False
                issues.append(
                    f"dimensions: outcome {o.label!r} Kraus {j} has shape "
                    f"{e.shape}, expected ({instr.d_out}, {instr.d_in})"
                )
    if not dims_ok:
        return ValidationReport(False, float("inf"), False, {}, tuple(issues))

    outcome_excess: dict[str, float] = {}
    total = np.zeros((instr.d_in, instr.d_in), dtype=complex)
    for o in instr.outcomes:
        p_el = o.povm_element()
        total += p_el
        w, _ = eig_hermitian(p_el)
        excess = float(w[0]) - 1.0 if w.size else -1.0
        outcome_excess[o.label] = excess
        if excess > TP_ATOL:
            issues.append(
                f"complete positivity (trace nonincreasing): outcome {o.label!r} "
                f"has sum E†E exceeding identity by {excess:.3e}"
            )
    tp_deviation = float(np.max(np.abs(total - np.eye(instr.d_in))))
    if tp_deviation > TP_ATOL:
        issues.append(
            f"trace preservation: max |sum E†E - 1| = {tp_deviation:.3e} "
            f"exceeds {TP_ATOL:.0e}"
        )
    return ValidationReport(not issues, tp_deviation, dims_ok, outcome_excess, tuple(issues))


def require_valid(instr: Instrument) -> None:
    """Raise :class:`InvalidInstrument` unless the instrument validates."""
    report = validate(instr)
    if not report.passed:
        raise InvalidInstrument("; ".join(report.issues))


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operators summing to the identity on a d-dimensional space."""

    d: int
    elements: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self) -> None:
        els = []
        for label, m in self.elements:
            m = _operator(m)
            if m.shape != (self.d, self.d):
                raise DimensionMismatch(
                    f"POVM element {label!r} has shape {m.shape}, expected "
                    f"({self.d}, {self.d})"
                )
            els.append((label, m))
        labels = [lab for lab, _ in els]
        if len(set(labels)) != len(labels):
            raise DuplicateLabel(f"duplicate POVM labels in {labels}")
        object.__setattr__(self, "elements", tuple(els))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.elements)


def check_povm(povm: Povm, atol: float = TP_ATOL) -> None:
    """Raise :class:`InvalidPovm` unless elements are PSD and complete."""
    total = np.zeros((povm.d, povm.d), dtype=complex)
    for label, m in povm.elements:
        w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        if float(w[0]) < -atol:
            raise InvalidPovm(f"element {label!r} has eigenvalue {w[0]:.3e}")
        total += m
    dev = float(np.max(np.abs(total - np.eye(povm.d))))
    if dev > atol:
        raise InvalidPovm(f"completeness violated: max |sum P - 1| = {dev:.3e}")


def povm_of(instr: Instrument) -> Povm:
    """POVM induced by the instrument: P_m = sum_k E_{m,k}† E_{m,k}."""
    require_valid(instr)
    return Povm(
        instr.d_in,
        tuple((o.label, o.povm_element()) for o in instr.outcomes),
    )


def _check_input_state(instr: Instrument, rho: LabeledState) -> None:
    if rho.dim != instr.d_in:
        raise DimensionMismatch(
            f"state dimension {rho.dim} != instrument d_in {instr.d_in}"
        )


def outcome_probability(instr: Instrument, label: str, rho: LabeledState) -> float:
    """p(m) = Tr[E_m(rho)]."""
    _check_input_state(instr, rho)
    om = instr.outcome(label)
    return float(np.trace(om.apply(rho.matrix)).real)


def posterior_state(instr: Instrument, label: str, rho: LabeledState) -> LabeledState:
    """Normalized post-measurement state E_m(rho)/p(m) on the output space."""
    _check_input_state(instr, rho)
    om = instr.outcome(label)
    mapped = om.apply(rho.matrix)
    p = float(np.trace(mapped).real)
    if p <= PROB_EPS:
        raise ZeroProbabilityOutcome(f"outcome {label!r} has probability {p:.3e}")
    return LabeledState(
        (Subsystem("Qp", instr.d_out),), mapped / p, validate=False
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
    labels = (Subsystem("Qp", instr.d_out), Subsystem("X", n))
    return LabeledState(labels, theta, validate=False)


@dataclass(frozen=True, eq=False)
class PurifiedInput:
    """A state rho on Q together with a purifying vector on R ⊗ Q.

    The reference dimension equals dim(Q) (zero-padded for rank-deficient
    states) so shapes are fixed; all derived information quantities are
    invariant under this choice.
    """

    rho: LabeledState
    psi: np.ndarray
    r_dim: int

    def __post_init__(self) -> None:
        psi = np.asarray(self.psi, dtype=complex).reshape(-1).copy()
        if psi.shape[0] != self.r_dim * self.rho.dim:
            raise DimensionMismatch(
                f"purification length {psi.shape[0]} != r_dim*dim "
                f"{self.r_dim * self.rho.dim}"
            )
        norm = float(np.real(np.vdot(psi, psi)))
        if abs(norm - 1.0) > 1e-10:
            raise InvalidState(f"purification norm² = {norm}, expected 1")
        mat = psi.reshape(self.r_dim, self.rho.dim)
        reduced = mat.T @ mat.conj()
        dev = float(np.max(np.abs(reduced - self.rho.matrix)))
        if dev > 1e-9:
            raise InvalidState(
                f"purification does not reduce to the state: max dev {dev:.3e}"
            )
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)

    @property
    def psi_matrix(self) -> np.ndarray:
        """Coefficient matrix psi[r, q] of the purifying vector."""
        return self.psi.reshape(self.r_dim, self.rho.dim)


def purify(rho: LabeledState) -> PurifiedInput:
    """Canonical purification sum_i sqrt(lam_i) |i>_R |v_i>_Q of ``rho``."""
    w, v = eig_hermitian(rho.matrix)
    w = np.clip(w, 0.0, None)
    psi = np.sqrt(w)[:, None] * v.T
    return PurifiedInput(rho=rho, psi=psi.reshape(-1), r_dim=rho.dim)


def haar_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Haar-random isometry via QR of a complex Gaussian with phase fixing."""
    if rows < cols:
        raise DimensionTooSmall(f"isometry needs rows >= cols, got {rows} < {cols}")
    z = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phases = np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * phases


def random_instrument(
    rng_seed, d_in: int, d_out: int, n_outcomes: int, multiplicity: int
) -> Instrument:
    """Haar-random instrument: slice a random isometry into Kraus blocks.

    Deterministic for a fixed seed; the output always validates.
    """
    if min(d_in, d_out, n_outcomes, multiplicity) < 1:
        raise DimensionTooSmall(
            f"d_in, d_out, n_outcomes and multiplicity must be >= 1, got "
            f"{d_in}, {d_out}, {n_outcomes}, {multiplicity}"
        )
    if d_out * n_outcomes * multiplicity < d_in:
        raise DimensionTooSmall(
            f"d_out*n_outcomes*multiplicity = {d_out * n_outcomes * multiplicity} "
            f"< d_in = {d_in}"
        )
    rng = np.random.default_rng(rng_seed)
    v = haar_isometry(rng, d_out * n_outcomes * multiplicity, d_in)
    outcomes = []
    for m in range(n_outcomes):
        kraus = []
        for k in range(multiplicity):
            b = m * multiplicity + k
            kraus.append(v[b * d_out : (b + 1) * d_out, :])
        outcomes.append(OutcomeMap(str(m), tuple(kraus)))
    return Instrument(d_in, d_out, tuple(outcomes))
