"""Entropic functionals of a quantum measurement.

The three headline quantities, all in bits:

* information gain  iota  = I(R:X), the mutual information between the
  purifying reference and the classical outcome register; equivalently the
  Holevo quantity of the ensemble the measurement induces on the reference.
* disturbance       delta = S(rho) - I_c(R -> Qp X), the loss of coherent
  information from the reference to output-plus-register; equivalently
  I(R : App X).
* missing information (noise) Delta = I(R : App | X), the conditional
  correlations between the reference and the apparatus multiplicity degrees
  of freedom given the outcome.

They satisfy the balance identity iota + Delta = delta, hence the tradeoff
iota <= delta, with equality exactly when every outcome map has a single
Kraus operator.

The joint state on [R, Qp, App, X] is never built: every quantity is an
average over outcomes of small per-outcome spectra, each evaluated by two
routes that share no matrix (see ``_Analysis``).  Each route has its own
kernel, a stacked SVD (``_schmidt_entropies``) or a stacked ``eigvalsh``
(``_state_entropies``), so a kind of spectrum costs one ``numpy.linalg`` call
per outcome multiplicity, not one per outcome.  The analysis of the last
(instrument, state) pair is kept, so the entry points here and in
:mod:`infobalance.recovery` share one purification, one decomposition of rho
and one set of spectra per pair.  Negative round-off is clipped to zero only
for quantities that are provably nonnegative.  The reference module
:mod:`infobalance.dilation` builds the joint state instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import BadDistribution, NumericalInconsistency, ZeroProbabilityOutcome
from .objects import PROB_EPS, Instrument, _check_input_state, _purification, require_valid
from .tensors import ENTROPY_CUTOFF, LabeledState, _descending, _hermitian

#: tolerance for agreement between independent computation routes
ROUTE_ATOL = 1e-9
#: tolerance for the balance identity iota + Delta = delta
BALANCE_ATOL = 1e-9


def _clip_nonneg(x: float, tol: float = 1e-9) -> float:
    """Zero out round-off negatives; values below -tol pass through untouched
    so that genuine violations stay visible to callers and tests."""
    return 0.0 if -tol <= x < 0.0 else x


def binary_entropy(x: float) -> float:
    """h2(x) in bits with the conventions h2(0) = h2(1) = 0."""
    if x < 0.0 or x > 1.0:
        raise BadDistribution(f"binary entropy argument {x} outside [0, 1]")
    s = 0.0
    if x > 0.0:
        s -= x * np.log2(x)
    if x < 1.0:
        s -= (1.0 - x) * np.log2(1.0 - x)
    return float(s)


def shannon_entropy(probs: Sequence[float]) -> float:
    """Entropy in bits of a probability vector; ~0 entries are skipped."""
    p = np.asarray(probs, dtype=float)
    if p.size and (float(p.min()) < -1e-9 or abs(float(p.sum()) - 1.0) > 1e-9):
        raise BadDistribution("probabilities must be nonnegative and sum to 1")
    p = p[p > ENTROPY_CUTOFF]
    # adding 0.0 turns the -0.0 of a certain outcome into 0.0
    return float(-(p * np.log2(p)).sum()) + 0.0 if p.size else 0.0


# -- per-measurement analysis --------------------------------------------------


def _padded(spectra: list[np.ndarray]) -> np.ndarray:
    """Rows of every ``(B, k)`` array of spectra in one array, zero-padded on
    the right to the widest ``k``."""
    out = np.zeros((sum(len(s) for s in spectra), max(s.shape[1] for s in spectra)))
    row = 0
    for s in spectra:
        out[row : row + len(s), : s.shape[1]] = s
        row += len(s)
    return out


def _entropy_rows(x: np.ndarray) -> np.ndarray:
    """Minus the sum of x log2 x along each row, entries at or below
    ENTROPY_CUTOFF counting as exact zeros.  The sum runs left to right, so
    zero padding never changes a row's value."""
    x = x.copy()
    x[x <= ENTROPY_CUTOFF] = 1.0  # 1 log2 1 is an exact zero
    return -(x * np.log2(x)).cumsum(axis=1)[:, -1]


def _schmidt_entropies(splits: list[np.ndarray], probs: np.ndarray) -> np.ndarray:
    """Entropy in bits of the row marginal of each pure state amplitudes/sqrt(p).

    ``splits`` are stacks ``(B, rows, cols)`` of amplitude matrices, one
    stacked SVD each; ``probs`` holds the norms² p of all their matrices in
    order.  This is the purification side's kernel.
    """
    s = _padded([np.linalg.svd(a, compute_uv=False) for a in splits])
    x = s * s / probs[:, None]
    if (np.abs(x.sum(axis=1) - 1.0) > 1e-9).any():
        raise BadDistribution("probabilities must be nonnegative and sum to 1")
    # adding 0.0 turns the -0.0 of a pure marginal into 0.0
    return _entropy_rows(x) + 0.0


def _state_entropies(stacks: list[np.ndarray]) -> np.ndarray:
    """Von Neumann entropy in bits of each (sub)normalized PSD matrix in the
    stacks ``(B, d, d)``, one stacked ``eigvalsh`` each.  This is the state
    side's kernel."""
    s = _entropy_rows(_padded([np.linalg.eigvalsh(_hermitian(m)) for m in stacks]))
    s[(s >= -1e-9) & (s < 0.0)] = 0.0
    return s


class _Analysis:
    """Per-outcome spectra of one (state, instrument) pair, by two routes.

    Given outcome m the dilated state on [R, Qp, App] is pure, with
    amplitudes T_m[k, r, q] = (psi E_{m,k}^T)[r, q], and the register X is
    classical, so every quantity is a p_m-average of S(R|m), S(Qp|m) and
    S(App|m).  The purification side reads them from the singular values of
    T_m split three ways (:func:`_schmidt_entropies`).  The state side reads
    them from the reference ensemble member psi P_m^T psi† / p_m, the
    posterior E_m(rho) / p_m and the entropy-exchange matrix
    W_m[k, k'] = Tr(E_k rho E_k'†) / p_m (Schumacher, PRA 54, 2614, 1996;
    :func:`_state_entropies`).  The two sides share no matrix, so every
    comparison between them is a numerical cross-check.

    The constructor only checks the pair; every other part is computed on
    first use and kept, so an entry point computes only what it reads and a
    pair decomposes rho once (``rho_eigh``, read by the purification and by
    the Petz recovery of :mod:`infobalance.recovery`).  The per-outcome part
    (``probs``, ``weights``, ``pure_side``, ``state_side`` and
    ``s_reference``) covers the outcomes of probability above PROB_EPS;
    each kind of spectrum is one stacked call, or one per multiplicity where
    the matrix shape depends on it (the three splits of T_m, W_m).  Entry
    points reach the analysis through :func:`_analysis`.
    """

    def __init__(self, instr: Instrument, rho: LabeledState) -> None:
        require_valid(instr)
        _check_input_state(instr, rho)
        self.instr = instr
        self.rho = rho

    @cached_property
    def rho_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """The ascending ``eigh`` of rho, the pair's one decomposition of it."""
        return np.linalg.eigh(_hermitian(self.rho.matrix))

    @cached_property
    def psi(self) -> np.ndarray:
        """Coefficient matrix of the purification of rho, as :func:`purify`."""
        return _purification(self.rho, *_descending(*self.rho_eigh)).psi_matrix

    @cached_property
    def blocks(self) -> list[tuple[int, int]]:
        """(start, multiplicity) of each outcome's Kraus operators in the stack."""
        blocks, start = [], 0
        for om in self.instr.outcomes:
            blocks.append((start, om.multiplicity))
            start += om.multiplicity
        return blocks

    @cached_property
    def amplitudes(self) -> np.ndarray:
        return self.psi @ self.instr.kraus_stack.transpose(0, 2, 1)

    @cached_property
    def s_input(self) -> float:
        """S(R) of the whole dilated state, which is S(rho); with one outcome
        it is bit for bit S(R|m), so iota_m is exactly 0 there."""
        t = self.amplitudes
        return float(_schmidt_entropies(
            [t.transpose(1, 0, 2).reshape(1, len(self.psi), -1)],
            np.array([np.vdot(t, t).real]),
        )[0])

    @cached_property
    def mapped(self) -> np.ndarray:
        """E_k rho for every Kraus operator, ``(K, d_out, d_in)``."""
        return self.instr.kraus_stack @ self.rho.matrix

    @cached_property
    def exchange(self) -> np.ndarray:
        """Tr(E_i rho E_j†) over every pair of Kraus operators of the instrument."""
        stacked = self.instr.kraus_stack
        flat = stacked.reshape(len(stacked), -1)
        return self.mapped.reshape(flat.shape) @ flat.conj().T

    @cached_property
    def posteriors(self) -> np.ndarray:
        return np.add.reduceat(
            self.mapped @ self.instr.kraus_stack.conj().transpose(0, 2, 1),
            [b for b, _ in self.blocks],
        )

    @cached_property
    def probs(self) -> np.ndarray:
        t = self.amplitudes
        return np.array([np.vdot(t[b : b + k], t[b : b + k]).real for b, k in self.blocks])

    @cached_property
    def weights(self) -> np.ndarray:
        """``probs``, with outcomes of probability at or below PROB_EPS at zero."""
        return np.where(self.probs > PROB_EPS, self.probs, 0.0)

    @cached_property
    def _groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(outcome indices, their Kraus indices ``(B, mult)``) for each
        multiplicity among the outcomes of positive weight."""
        groups: dict[int, list[int]] = {}
        for idx, (_, k) in enumerate(self.blocks):
            if self.weights[idx] > 0.0:
                groups.setdefault(k, []).append(idx)
        return [
            (np.array(idx), np.array([self.blocks[i][0] for i in idx])[:, None] + np.arange(k))
            for k, idx in groups.items()
        ]

    @cached_property
    def _live(self) -> np.ndarray:
        """Indices of the outcomes of positive weight, group by group."""
        return np.concatenate([idx for idx, _ in self._groups])

    def _per_outcome(self, entropies: np.ndarray) -> np.ndarray:
        """Rows S(R|m), S(Qp|m), S(App|m) from ``entropies`` laid out as
        [R, Qp, App] blocks, each in ``_live`` order; rows of excluded
        outcomes stay 0."""
        out = np.zeros((len(self.probs), 3))
        out[self._live] = entropies.reshape(3, -1).T
        return out

    @cached_property
    def pure_side(self) -> np.ndarray:
        """S(R|m), S(Qp|m), S(App|m) from the singular values of T_m."""
        d_r, d_out = self.amplitudes.shape[1:]
        r_splits, q_splits, a_splits, probs = [], [], [], []
        for idx, kraus in self._groups:
            t = self.amplitudes[kraus]  # (B, mult, d_r, d_out)
            r_splits.append(t.transpose(0, 2, 1, 3).reshape(len(idx), d_r, -1))
            q_splits.append(t.transpose(0, 3, 1, 2).reshape(len(idx), d_out, -1))
            a_splits.append(t.reshape(*kraus.shape, -1))
            probs.append(self.probs[idx])
        probs = np.concatenate(probs * 3)
        return self._per_outcome(_schmidt_entropies(r_splits + q_splits + a_splits, probs))

    @cached_property
    def _state(self) -> tuple[np.ndarray, float]:
        """``state_side`` and ``s_reference``, from one stacked ``eigvalsh`` of
        the reference members with their sum, one of the posteriors and one of
        the exchange blocks of each multiplicity."""
        live = self._live
        p = self.probs[live][:, None, None]
        elements = self.instr.povm_elements[live].transpose(0, 2, 1)
        members = self.psi @ elements @ self.psi.conj().T
        blocks = [
            self.exchange[kraus[:, :, None], kraus[:, None, :]] / self.probs[idx][:, None, None]
            for idx, kraus in self._groups
        ]
        s = _state_entropies(
            [np.concatenate([members / p, members.sum(axis=0)[None]]),
             self.posteriors[live] / p, *blocks]
        )
        n = len(live)
        return self._per_outcome(np.concatenate([s[:n], s[n + 1 :]])), float(s[n])

    @property
    def state_side(self) -> np.ndarray:
        """S(R|m), S(Qp|m), S(App|m) from the members, posteriors and
        exchange blocks."""
        return self._state[0]

    @property
    def s_reference(self) -> float:
        """S(R) of the reference ensemble's average, sum_m psi P_m^T psi†."""
        return self._state[1]

    def iota_routes(self) -> tuple[float, float]:
        """(purification route, chi route of the reference ensemble)."""
        route_a = float(self.s_input - self.weights @ self.pure_side[:, 0])
        route_b = float(self.s_reference - self.weights @ self.state_side[:, 0])
        return _clip_nonneg(route_a), _clip_nonneg(route_b)

    def delta_routes(self) -> tuple[float, float]:
        """(purification route, posterior-and-exchange route)."""
        pure, state = self.pure_side, self.state_side
        route_a = float(self.s_input - self.weights @ (pure[:, 1] - pure[:, 2]))
        route_b = float(self.s_reference - self.weights @ (state[:, 1] - state[:, 2]))
        return _clip_nonneg(route_a), _clip_nonneg(route_b)

    def noise_routes(self) -> tuple[float, float]:
        """(state route, purification route) of sum_m p_m I(R:App|m)."""
        pure, state = self.pure_side, self.state_side
        route_a = float(self.weights @ (state[:, 0] + state[:, 2] - state[:, 1]))
        route_b = float(self.weights @ (pure[:, 0] + pure[:, 2] - pure[:, 1]))
        return _clip_nonneg(route_a), _clip_nonneg(route_b)

    def disturbance_no_outcomes(self) -> float:
        output = self.posteriors.sum(axis=0)
        s_output, s_exchange = _state_entropies([output[None], self.exchange[None]])
        return float(self.s_input - s_output + s_exchange)

    def groenewold(self) -> float:
        return float(self.s_input - self.weights @ self.state_side[:, 1])

    def single_outcome(self, idx: int) -> tuple[float, float, float]:
        """(iota_m, delta_m) from the purification side, noise_m from the
        state side, so iota_m + noise_m = delta_m is a cross-check."""
        s_r, s_q, s_a = self.pure_side[idx].tolist()
        state_r, state_q, state_a = self.state_side[idx].tolist()
        noise_m = _clip_nonneg(state_r + state_a - state_q)
        return self.s_input - s_r, self.s_input - s_q + s_a, noise_m


@lru_cache(maxsize=1)
def _analysis(instr: Instrument, rho: LabeledState) -> _Analysis:
    """The analysis of the pair, kept until a call asks for another pair.

    Instruments and states compare by identity and cannot be changed, so a
    kept analysis is never stale; it is the one place where the per-pair
    entry points of this module and of :mod:`infobalance.recovery` share
    their work.
    """
    return _Analysis(instr, rho)


def _require_agree(name: str, a: float, b: float) -> None:
    if abs(a - b) > ROUTE_ATOL:
        raise NumericalInconsistency(
            f"{name}: independent routes disagree, {a!r} vs {b!r}"
        )


def information_gain(instr: Instrument, rho: LabeledState) -> float:
    """Information gain iota in bits.

    Computed both from the Schmidt spectra of the per-outcome purifications
    and as the chi quantity of the POVM-induced reference ensemble; the two
    must agree within 1e-9.  Depends on the instrument only through its POVM.
    """
    a, b = _analysis(instr, rho).iota_routes()
    _require_agree("information gain", a, b)
    return a


def disturbance(instr: Instrument, rho: LabeledState) -> float:
    """Disturbance delta in bits, with the outcome register kept."""
    a, b = _analysis(instr, rho).delta_routes()
    _require_agree("disturbance", a, b)
    return a


def disturbance_no_outcomes(instr: Instrument, rho: LabeledState) -> float:
    """Disturbance of the outcome-averaged channel; >= disturbance by data
    processing, and a strictly looser figure whenever outcomes help."""
    return _analysis(instr, rho).disturbance_no_outcomes()


def noise_delta(instr: Instrument, rho: LabeledState) -> float:
    """Missing information Delta = I(R:App|X) in bits; zero iff every outcome
    leaves reference and apparatus in a product state."""
    a, b = _analysis(instr, rho).noise_routes()
    _require_agree("missing information", a, b)
    return a


def groenewold_gain(instr: Instrument, rho: LabeledState) -> float:
    """Average posterior-entropy gain S(rho) - sum_m p(m) S(rho_m').

    Unlike the information gain this depends on the particular state
    reduction maps and can be negative.
    """
    return _analysis(instr, rho).groenewold()


def single_outcome_quantities(
    instr: Instrument, rho: LabeledState, outcome: str
) -> tuple[float, float, float]:
    """(iota_m, delta_m, noise_m) conditioned on one outcome.

    iota_m and delta_m may be negative; noise_m is a mutual information and
    is not.  They satisfy iota_m + noise_m = delta_m.
    """
    ctx = _analysis(instr, rho)
    idx = instr.outcome_index(outcome)
    if float(ctx.probs[idx]) <= PROB_EPS:
        raise ZeroProbabilityOutcome(
            f"outcome {outcome!r} has probability {ctx.probs[idx]:.3e}"
        )
    return ctx.single_outcome(idx)


@dataclass(frozen=True)
class OutcomeBalance:
    """Per-outcome row of a balance report."""

    label: str
    p: float
    iota_m: float
    delta_m: float
    noise_m: float


@dataclass(frozen=True)
class BalanceReport:
    """Complete information balance of one (state, instrument) pair.

    ``residual_balance`` is |iota + noise - delta| with each term computed
    by its own route, so it is a genuine numerical cross-check rather than
    an algebraic identity.  ``residual_routes`` records every other
    cross-check residual.
    """

    iota: float
    delta: float
    noise: float
    iota_g: float
    per_outcome: tuple[OutcomeBalance, ...]
    residual_balance: float
    residual_routes: dict[str, float]
    excluded_weight: float

    def to_dict(self) -> dict:
        return {
            "iota": self.iota,
            "delta": self.delta,
            "noise": self.noise,
            "iota_g": self.iota_g,
            "residual_balance": self.residual_balance,
            "per_outcome": [
                {
                    "label": row.label,
                    "p": row.p,
                    "iota_m": row.iota_m,
                    "delta_m": row.delta_m,
                    "noise_m": row.noise_m,
                }
                for row in self.per_outcome
            ],
            "residual_routes": dict(self.residual_routes),
            "excluded_weight": self.excluded_weight,
        }


def balance_report(instr: Instrument, rho: LabeledState) -> BalanceReport:
    """Evaluate iota, delta, Delta, iota_G, and all per-outcome quantities.

    Raises :class:`NumericalInconsistency` if any pair of independent routes
    disagrees beyond 1e-9 or the balance identity residual exceeds 1e-9.
    Outcomes with probability at or below 1e-12 are excluded from the table;
    their total weight is reported, never silently renormalized.
    """
    ctx = _analysis(instr, rho)
    iota_a, iota_b = ctx.iota_routes()
    delta_a, delta_b = ctx.delta_routes()
    noise_a, noise_b = ctx.noise_routes()
    _require_agree("information gain", iota_a, iota_b)
    _require_agree("disturbance", delta_a, delta_b)
    _require_agree("missing information", noise_a, noise_b)

    rows = []
    excluded = 0.0
    agg_iota = agg_delta = agg_noise = 0.0
    worst_single = 0.0
    for idx, label in enumerate(instr.outcome_labels):
        p = float(ctx.probs[idx])
        if p <= PROB_EPS:
            excluded += max(p, 0.0)
            continue
        iota_m, delta_m, noise_m = ctx.single_outcome(idx)
        rows.append(OutcomeBalance(label, p, iota_m, delta_m, noise_m))
        agg_iota += p * iota_m
        agg_delta += p * delta_m
        agg_noise += p * noise_m
        worst_single = max(worst_single, abs(iota_m + noise_m - delta_m))

    residual = abs(iota_a + noise_a - delta_a)
    if residual > BALANCE_ATOL:
        raise NumericalInconsistency(
            f"balance identity violated: |iota + noise - delta| = {residual:.3e}"
        )
    report = BalanceReport(
        iota=iota_a,
        delta=delta_a,
        noise=noise_a,
        iota_g=ctx.groenewold(),
        per_outcome=tuple(rows),
        residual_balance=residual,
        residual_routes={
            "iota_routes": abs(iota_a - iota_b),
            "delta_routes": abs(delta_a - delta_b),
            "noise_routes": abs(noise_a - noise_b),
            "iota_aggregation": abs(agg_iota - iota_a),
            "delta_aggregation": abs(agg_delta - delta_a),
            "noise_aggregation": abs(agg_noise - noise_a),
            "single_outcome_balance": worst_single,
        },
        excluded_weight=excluded,
    )
    return report
