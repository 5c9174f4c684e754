"""Quantum instruments, POVMs, purifications, and random instances.

An :class:`Instrument` is a finite list of outcomes, each a completely
positive map given by Kraus operators from the input space to the output
space; the sum of all maps must be trace preserving.  Construction is
permissive so that defective instruments loaded from files can still be
inspected: hard validity is checked by :func:`validate`.  An instrument
computes its validation report, Kraus stack and POVM elements once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
from .tensors import LabeledState, Subsystem, _hermitian, _is_int, _read_only, eig_hermitian

#: max deviation tolerated for trace preservation / POVM completeness
TP_ATOL = 1e-8
#: outcomes with probability at or below this are treated as never occurring
PROB_EPS = 1e-12


def _operator(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"operators must be 2-D, got shape {m.shape}")
    return _read_only(m.copy())


@dataclass(frozen=True, eq=False)
class OutcomeMap:
    """One measurement outcome: a label and the Kraus list of its CP map."""

    label: str
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.kraus) == 0:
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

    @cached_property
    def validation_report(self) -> ValidationReport:
        """:func:`validate` of this instrument, computed on first use and kept."""
        return validate(self)

    @cached_property
    def kraus_stack(self) -> np.ndarray:
        """Read-only ``(K, d_out, d_in)`` stack of the Kraus operators, outcome by outcome."""
        return _read_only(np.concatenate([np.array(o.kraus) for o in self.outcomes]))

    @cached_property
    def povm_elements(self) -> np.ndarray:
        """Read-only ``(n, d_in, d_in)`` stack of the POVM elements sum_k E_k† E_k."""
        kraus, mults = self.kraus_stack, [o.multiplicity for o in self.outcomes]
        return _read_only(_outcome_sums((kraus.conj().swapaxes(1, 2) @ kraus)[None], mults))[0]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking an instrument against its invariants."""

    passed: bool
    tp_deviation: float
    dims_ok: bool
    outcome_excess: dict[str, float]
    issues: tuple[str, ...]


def validate(instr: Instrument) -> ValidationReport:
    """Check dimensions, finite entries, per-outcome CP trace-nonincrease, global TP.

    Never raises; all failures are carried in the report.
    """
    [report] = _validation_reports([instr])
    return report


def _validate_each(instrs) -> None:
    """Give every instrument of ``instrs`` its kept ``validation_report``;
    those that lack one are checked by one :func:`_validation_reports`."""
    todo = [i for i in dict.fromkeys(instrs) if "validation_report" not in i.__dict__]
    for instr, report in zip(todo, _validation_reports(todo)):
        instr.__dict__["validation_report"] = report  # where cached_property keeps it


def _validation_reports(instrs: list[Instrument]) -> list[ValidationReport]:
    """:func:`validate` of each instrument.

    The instruments whose Kraus operators all have the expected shape are
    checked as one stack per signature (d_in, d_out, multiplicities): one
    ``isfinite`` over the Kraus operators, one product for every E†E (summed
    by :func:`_outcome_sums`) and one stacked ``eigh`` of the POVM elements; each
    report is bit for bit that of the instrument alone.  Finite instruments
    of the right shapes keep the Kraus stack and POVM elements so computed.
    """
    reports: list = [None] * len(instrs)
    groups: dict[tuple, list[int]] = {}
    for i, instr in enumerate(instrs):
        shape = (instr.d_out, instr.d_in)
        if _dims_ok(instr) and instr.outcomes and all(
            e.shape == shape for o in instr.outcomes for e in o.kraus
        ):
            mults = tuple(o.multiplicity for o in instr.outcomes)
            groups.setdefault((shape, mults), []).append(i)
        else:
            reports[i] = _malformed(instr)
    for ((_, d_in), mults), idx in groups.items():
        stack = np.array([[e for o in instrs[i].outcomes for e in o.kraus] for i in idx])
        ok = np.isfinite(stack).all(axis=(1, 2, 3)).tolist()
        for i, good in zip(idx, ok):
            if not good:
                reports[i] = _malformed(instrs[i])
        idx = [i for i, good in zip(idx, ok) if good]
        stack = _read_only(stack if all(ok) else stack[ok])
        elements = _read_only(_outcome_sums(stack.conj().swapaxes(2, 3) @ stack, mults))
        # summed in outcome order: as adding to zero, up to the sign of zeros
        total = elements.cumsum(axis=1)[:, -1]
        tp_deviation = np.abs(total - np.eye(d_in)).max(axis=(1, 2)).tolist()
        # eigh, not eigvalsh: its largest eigenvalues are bit for bit those of
        # eig_hermitian on each element, so outcome_excess prints unchanged
        excess = (np.linalg.eigh(_hermitian(elements))[0][..., -1] - 1.0).tolist()
        for b, i in enumerate(idx):
            instr = instrs[i]
            instr.__dict__.setdefault("kraus_stack", stack[b])
            instr.__dict__.setdefault("povm_elements", elements[b])
            reports[i] = _numeric_report(instr, tp_deviation[b], excess[b])
    return reports


def _dims_ok(instr: Instrument) -> bool:
    """Whether ``d_in`` and ``d_out`` are integers >= 1."""
    return all(_is_int(d) and d >= 1 for d in (instr.d_in, instr.d_out))


def _malformed(instr: Instrument) -> ValidationReport:
    """The failing report of an instrument without outcomes, with a dimension
    that is not an integer >= 1, or with a Kraus operator of the wrong shape
    or not finite."""
    issues: list[str] = []
    dims_ok = _dims_ok(instr)
    if not dims_ok:
        issues.append(f"dimensions: d_in={instr.d_in}, d_out={instr.d_out}")
    if not instr.outcomes:
        issues.append("instrument has no outcomes")
    for o in instr.outcomes:
        for j, e in enumerate(o.kraus):
            if e.shape != (instr.d_out, instr.d_in):
                dims_ok = False
                issues.append(
                    f"dimensions: outcome {o.label!r} Kraus {j} has shape "
                    f"{e.shape}, expected ({instr.d_out}, {instr.d_in})"
                )
            elif not np.isfinite(e).all():
                issues.append(f"non-finite entries: outcome {o.label!r} Kraus {j}")
    return ValidationReport(False, float("inf"), dims_ok, {}, tuple(issues))


def _numeric_report(instr: Instrument, tp_deviation: float, excess: list) -> ValidationReport:
    """The report of a finite instrument of the right shapes, from its
    max |sum E†E - 1| and the excess over 1 of each element's top eigenvalue."""
    issues = [
        f"complete positivity (trace nonincreasing): outcome {o.label!r} "
        f"has sum E†E exceeding identity by {e:.3e}"
        for o, e in zip(instr.outcomes, excess) if e > TP_ATOL
    ]
    if tp_deviation > TP_ATOL:
        issues.append(
            f"trace preservation: max |sum E†E - 1| = {tp_deviation:.3e} "
            f"exceeds {TP_ATOL:.0e}"
        )
    outcome_excess = dict(zip(instr.outcome_labels, excess))
    return ValidationReport(not issues, tp_deviation, True, outcome_excess, tuple(issues))


def _runs(mults) -> list[tuple[int, int, int]]:
    """(first, end, multiplicity) of each run of consecutive outcomes that
    share a multiplicity, so a run's Kraus operators are a slice."""
    runs: list[tuple[int, int, int]] = []
    for m, k in enumerate(mults):
        if runs and runs[-1][1:] == (m, k):
            runs[-1] = (runs[-1][0], m + 1, k)
        else:
            runs.append((m, m + 1, k))
    return runs


def _outcome_sums(products: np.ndarray, mults) -> np.ndarray:
    """Per outcome the sum ``(B, n, ...)`` of the products ``(B, K, ...)`` of
    its Kraus operators, for outcomes of multiplicities ``mults``: added to
    zero in Kraus order, as :meth:`OutcomeMap.apply` and
    :meth:`OutcomeMap.povm_element` add them, one pass per Kraus index over
    each run of outcomes of one multiplicity (:func:`_runs`)."""
    B, rest = len(products), products.shape[2:]
    sums, start = [], 0
    for a, b, k in _runs(mults):
        x = products[:, start : start + (b - a) * k].reshape(B, b - a, k, *rest)
        total = x[:, :, 0] + 0.0  # bit for bit 0.0 + x
        for j in range(1, k):
            total += x[:, :, j]
        sums.append(total)
        start += (b - a) * k
    return sums[0] if len(sums) == 1 else np.concatenate(sums, axis=1)


def require_valid(instr: Instrument) -> None:
    """Raise :class:`InvalidInstrument` unless the instrument validates."""
    if not instr.validation_report.passed:
        raise InvalidInstrument("; ".join(instr.validation_report.issues))


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


def check_povm(povm: Povm) -> None:
    """Raise :class:`InvalidPovm` unless elements are Hermitian, PSD and complete."""
    stack = np.reshape([m for _, m in povm.elements], (-1, povm.d, povm.d))
    _check_povm_stack(stack, povm.labels)


def _check_povm_stack(stack: np.ndarray, labels, atol: float = TP_ATOL) -> None:
    """:func:`check_povm` on elements stacked as ``(..., k, d, d)``.

    Leading axes hold independent POVMs sharing ``labels``.  Every element
    is tested for finite entries, then for Hermiticity within atol, then for
    positivity, the first failure in C order being reported, before
    completeness, where the largest deviation is reported.
    """
    _reject_first(~np.isfinite(stack).all(axis=(-2, -1)), labels, _NON_FINITE)
    skew = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    _reject_first(skew > atol, labels, _NOT_HERMITIAN, skew)
    low = _lowest_eigenvalues(_hermitian(stack), atol)
    _reject_first(low < -atol, labels, _NEGATIVE, low)
    _require_complete(stack.sum(axis=-3), atol)


def _check_factored_povm(
    c: np.ndarray, v: np.ndarray, deficit: np.ndarray, deficit_low: np.ndarray, labels
) -> None:
    """:func:`_check_povm_stack` of POVMs whose elements are ``c_i |v_i><v_i|``
    for weights ``c`` ``(..., k)`` and vectors ``v`` ``(..., k, d)``, then
    ``deficit`` ``(..., d, d)``, without forming the rank-1 elements.

    The checks, their order and their messages are those of the stacked
    check at TP_ATOL, less the Hermiticity check: each ``c |v><v|`` is
    Hermitian exactly, and the deficit ``I - scale·total`` up to round-off.
    The only nonzero eigenvalue of ``c |v><v|`` is ``c ||v||²``, so
    it is read directly; ``deficit_low`` is what :func:`_lowest_eigenvalues`
    gives for the deficit, or zeros where the caller screened it already.
    """
    finite = np.concatenate([np.isfinite(c) & np.isfinite(v).all(axis=-1),
                             np.isfinite(deficit).all(axis=(-2, -1))[..., None]], axis=-1)
    _reject_first(~finite, labels, _NON_FINITE)
    low = np.concatenate([c * np.sum(np.abs(v) ** 2, axis=-1), deficit_low[..., None]], axis=-1)
    _reject_first(low < -TP_ATOL, labels, _NEGATIVE, low)
    _require_complete(_rank1_sum(c, v) + deficit, TP_ATOL)


def _rank1_sum(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``sum_i c_i |v_i><v_i|`` ``(..., d, d)`` of weights ``(..., k)`` and
    vectors ``(..., k, d)``, from one stacked product."""
    return (v.swapaxes(-1, -2) * c[..., None, :]) @ v.conj()


_NON_FINITE = "non-finite entries: element {label!r}"
_NOT_HERMITIAN = "element {label!r} is not Hermitian: max |P - P†| = {value:.3e}"
_NEGATIVE = "element {label!r} has eigenvalue {value:.3e}"


def _reject_first(bad: np.ndarray, labels, message: str, values=None) -> None:
    """Raise ``message`` for the first element, in C order, marked ``bad``,
    formatted with its label and its entry of ``values``."""
    if bad.any():
        index = tuple(np.argwhere(bad)[0])
        value = None if values is None else values[index]
        raise InvalidPovm(message.format(label=labels[index[-1]], value=value))


def _require_complete(total: np.ndarray, atol: float) -> None:
    """Raise unless every sum of elements ``total`` ``(..., d, d)`` is the identity."""
    dev = float(np.max(np.abs(total - np.eye(total.shape[-1]))))
    if dev > atol:
        raise InvalidPovm(f"completeness violated: max |sum P - 1| = {dev:.3e}")


def _lowest_eigenvalues(stack: np.ndarray, atol: float) -> np.ndarray:
    """Zeros when one stacked Cholesky factorization of the Hermitian stack
    ``(..., d, d)``, shifted by atol/2, succeeds; else the lowest eigenvalue
    of each matrix, from a stacked ``eigvalsh``.  Both read one triangle.

    Success shows every eigenvalue to lie above -atol/2, up to the rounding
    of the factorization, which is far below atol/2; so a stack with an
    eigenvalue below -atol never passes the screen.
    """
    try:
        np.linalg.cholesky(stack + atol / 2 * np.eye(stack.shape[-1]))
    except np.linalg.LinAlgError:
        return np.linalg.eigvalsh(stack)[..., 0]
    return np.zeros(stack.shape[:-2])


def povm_of(instr: Instrument) -> Povm:
    """POVM induced by the instrument: P_m = sum_k E_{m,k}† E_{m,k}."""
    require_valid(instr)
    return Povm(instr.d_in, tuple(zip(instr.outcome_labels, instr.povm_elements)))


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


@dataclass(frozen=True, eq=False)
class PurifiedInput:
    """A state rho on Q together with a purifying vector on R ⊗ Q.

    The reference dimension equals dim(Q) (zero-padded for rank-deficient
    states) so shapes are fixed; all derived information quantities are
    invariant under this choice.  :mod:`infobalance.dilation` and the
    encodings and Holevo checks of :mod:`infobalance.encodings` keep this
    r_dim = d; the engine in :mod:`infobalance.measures` builds its own
    purification, whose reference spans only the support of rho.
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
        object.__setattr__(self, "psi", _read_only(psi))

    @property
    def psi_matrix(self) -> np.ndarray:
        """Coefficient matrix psi[r, q] of the purifying vector."""
        return self.psi.reshape(self.r_dim, self.rho.dim)


def purify(rho: LabeledState) -> PurifiedInput:
    """Canonical purification sum_i sqrt(lam_i) |i>_R |v_i>_Q of ``rho``."""
    w, v = eig_hermitian(rho.matrix)
    psi = np.sqrt(np.clip(w, 0.0, None))[:, None] * v.T
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
    sizes = (d_in, d_out, n_outcomes, multiplicity)
    if not all(map(_is_int, sizes)):
        raise DimensionTooSmall(
            f"d_in, d_out, n_outcomes and multiplicity must be integers, got "
            f"{d_in}, {d_out}, {n_outcomes}, {multiplicity}"
        )
    if min(sizes) < 1:
        raise DimensionTooSmall(
            f"d_in, d_out, n_outcomes and multiplicity must be >= 1, got "
            f"{d_in}, {d_out}, {n_outcomes}, {multiplicity}"
        )
    if d_out * n_outcomes * multiplicity < d_in:
        raise DimensionTooSmall(
            f"d_out*n_outcomes*multiplicity = {d_out * n_outcomes * multiplicity} "
            f"< d_in = {d_in}"
        )
    v = haar_isometry(np.random.default_rng(rng_seed), d_out * n_outcomes * multiplicity, d_in)
    blocks = v.reshape(n_outcomes, multiplicity, d_out, d_in)  # outcome m, Kraus k: block m*mult+k
    return Instrument(d_in, d_out, [OutcomeMap(str(m), tuple(b)) for m, b in enumerate(blocks)])
