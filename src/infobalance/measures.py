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
per matrix shape, not one per outcome; :func:`balance_reports` stacks the
spectra of many pairs the same way.  The analysis of the last
(instrument, state) pair is kept, so the entry points here and in
:mod:`infobalance.recovery` share one purification, one decomposition of rho
and one set of spectra per pair.  Negative round-off is clipped to zero only
for quantities that are provably nonnegative.  The reference module
:mod:`infobalance.dilation` builds the joint state instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadDistribution,
    InfoBalanceError,
    NumericalInconsistency,
    ZeroProbabilityOutcome,
)
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
    # written so that NaN fails it too
    if not 0.0 <= x <= 1.0:
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
    if p.size and not (float(p.min()) >= -1e-9 and abs(float(p.sum()) - 1.0) <= 1e-9):
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


def _spectra(stacks: list[np.ndarray], decompose) -> np.ndarray:
    """The rows ``decompose`` gives for the matrices of ``stacks`` ``(B, ...)``,
    in order and :func:`_padded`: one stacked call per distinct matrix shape."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, stack in enumerate(stacks):
        groups.setdefault(stack.shape[1:], []).append(i)
    parts: list[np.ndarray] = [None] * len(stacks)
    for idx in groups.values():
        rows = decompose(np.concatenate([stacks[i] for i in idx]))
        start = 0
        for i in idx:
            parts[i] = rows[start : start + len(stacks[i])]
            start += len(stacks[i])
    return _padded(parts)


def _schmidt_entropies(splits: list[np.ndarray], probs: np.ndarray) -> np.ndarray:
    """Entropy in bits of the row marginal of each pure state amplitudes/sqrt(p).

    ``splits`` are stacks ``(B, rows, cols)`` of amplitude matrices, one
    stacked SVD per matrix shape; ``probs`` holds the norms² p of all their
    matrices in order.  This is the purification side's kernel.
    """
    s = _spectra(splits, lambda a: np.linalg.svd(a, compute_uv=False))
    x = s * s / probs[:, None]
    if (np.abs(x.sum(axis=1) - 1.0) > 1e-9).any():
        raise BadDistribution("probabilities must be nonnegative and sum to 1")
    # adding 0.0 turns the -0.0 of a pure marginal into 0.0
    return _entropy_rows(x) + 0.0


def _state_entropies(stacks: list[np.ndarray]) -> np.ndarray:
    """Von Neumann entropy in bits of each (sub)normalized PSD matrix in the
    stacks ``(B, d, d)``, one stacked ``eigvalsh`` per matrix shape.  This
    is the state side's kernel."""
    s = _entropy_rows(_spectra(stacks, lambda m: np.linalg.eigvalsh(_hermitian(m))))
    s[(s >= -1e-9) & (s < 0.0)] = 0.0
    return s


class _lazy:
    """A part of :class:`_Analysis` computed on first use and kept in the
    instance, as by :func:`functools.cached_property` but without its lock:
    threads that compute one part store equal values."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, ctx, owner=None):
        if ctx is None:
            return self
        value = ctx.__dict__[self.name] = self.fn(ctx)
        return value


class _batched(_lazy):
    """A :class:`_lazy` part that one call computes for many analyses:
    ``fn`` maps a list of analyses to their values.  Reading the part of
    one analysis runs ``fn`` on that analysis alone; :meth:`fill` runs it
    once on every analysis of a batch that lacks the part."""

    def __get__(self, ctx, owner=None):
        if ctx is None:
            return self
        [value] = self.fn([ctx])
        ctx.__dict__[self.name] = value
        return value

    def fill(self, ctxs: list[_Analysis]) -> None:
        todo = [ctx for ctx in dict.fromkeys(ctxs) if self.name not in ctx.__dict__]
        if todo:
            for ctx, value in zip(todo, self.fn(todo)):
                ctx.__dict__[self.name] = value


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
    ``s_reference``) covers the outcomes of probability above PROB_EPS.
    ``psi``, ``s_input``, ``pure_side`` and ``_state`` are :class:`_batched`:
    :func:`balance_reports` computes each for all its pairs at once, every
    kind of spectrum as one stacked call per matrix shape (the three splits
    of T_m and W_m depend on the multiplicity, the rest on the dimensions),
    and the analyses of one state object share its purification.  Entry
    points reach the analysis through :func:`_analysis`.
    """

    def __init__(self, instr: Instrument, rho: LabeledState) -> None:
        require_valid(instr)
        _check_input_state(instr, rho)
        self.instr = instr
        self.rho = rho

    @_lazy
    def rho_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """The ascending ``eigh`` of rho, the pair's one decomposition of it."""
        return np.linalg.eigh(_hermitian(self.rho.matrix))

    @_batched
    def psi(ctxs: list[_Analysis]) -> list[np.ndarray]:
        """Coefficient matrix of the purification of rho, as :func:`purify`;
        the analyses of one state object share one."""
        kept: dict[int, np.ndarray] = {}
        for ctx in ctxs:
            if id(ctx.rho) not in kept:
                kept[id(ctx.rho)] = _purification(ctx.rho, *_descending(*ctx.rho_eigh)).psi_matrix
        return [kept[id(ctx.rho)] for ctx in ctxs]

    @_lazy
    def blocks(self) -> list[tuple[int, int]]:
        """(start, multiplicity) of each outcome's Kraus operators in the stack."""
        blocks, start = [], 0
        for om in self.instr.outcomes:
            blocks.append((start, om.multiplicity))
            start += om.multiplicity
        return blocks

    @_lazy
    def amplitudes(self) -> np.ndarray:
        return self.psi @ self.instr.kraus_stack.transpose(0, 2, 1)

    @_batched
    def s_input(ctxs: list[_Analysis]) -> list[float]:
        """S(R) of the whole dilated state, which is S(rho); with one outcome
        it is bit for bit S(R|m), so iota_m is exactly 0 there."""
        stacks, probs = [], []
        for ctx in ctxs:
            t = ctx.amplitudes
            stacks.append(t.transpose(1, 0, 2).reshape(1, len(ctx.psi), -1))
            probs.append(np.vdot(t, t).real)
        return _schmidt_entropies(stacks, np.array(probs)).tolist()

    @_lazy
    def mapped(self) -> np.ndarray:
        """E_k rho for every Kraus operator, ``(K, d_out, d_in)``."""
        return self.instr.kraus_stack @ self.rho.matrix

    @_lazy
    def exchange(self) -> np.ndarray:
        """Tr(E_i rho E_j†) over every pair of Kraus operators of the instrument."""
        stacked = self.instr.kraus_stack
        flat = stacked.reshape(len(stacked), -1)
        return self.mapped.reshape(flat.shape) @ flat.conj().T

    @_lazy
    def posteriors(self) -> np.ndarray:
        return np.add.reduceat(
            self.mapped @ self.instr.kraus_stack.conj().transpose(0, 2, 1),
            [b for b, _ in self.blocks],
        )

    @_lazy
    def probs(self) -> np.ndarray:
        t = self.amplitudes
        return np.array([np.vdot(t[b : b + k], t[b : b + k]).real for b, k in self.blocks])

    @_lazy
    def weights(self) -> np.ndarray:
        """``probs``, with outcomes of probability at or below PROB_EPS at zero."""
        return np.where(self.probs > PROB_EPS, self.probs, 0.0)

    @_lazy
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

    @_lazy
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

    @_batched
    def pure_side(ctxs: list[_Analysis]) -> list[np.ndarray]:
        """S(R|m), S(Qp|m), S(App|m) from the singular values of T_m."""
        splits, probs = [], []
        for ctx in ctxs:
            d_r, d_out = ctx.amplitudes.shape[1:]
            r_splits, q_splits, a_splits, p = [], [], [], []
            for idx, kraus in ctx._groups:
                t = ctx.amplitudes[kraus]  # (B, mult, d_r, d_out)
                r_splits.append(t.transpose(0, 2, 1, 3).reshape(len(idx), d_r, -1))
                q_splits.append(t.transpose(0, 3, 1, 2).reshape(len(idx), d_out, -1))
                a_splits.append(t.reshape(*kraus.shape, -1))
                p.append(ctx.probs[idx])
            splits += r_splits + q_splits + a_splits
            probs += p * 3
        s = _schmidt_entropies(splits, np.concatenate(probs))
        out, start = [], 0
        for ctx in ctxs:
            end = start + 3 * len(ctx._live)
            out.append(ctx._per_outcome(s[start:end]))
            start = end
        return out

    @_batched
    def _state(ctxs: list[_Analysis]) -> list[tuple[np.ndarray, float]]:
        """``state_side`` and ``s_reference``, from the spectra of the
        reference members with their sum, of the posteriors and of the
        exchange blocks of each multiplicity."""
        stacks = []
        for ctx in ctxs:
            live = ctx._live
            p = ctx.probs[live][:, None, None]
            elements = ctx.instr.povm_elements[live].transpose(0, 2, 1)
            members = ctx.psi @ elements @ ctx.psi.conj().T
            stacks.append(np.concatenate([members / p, members.sum(axis=0)[None]]))
            stacks.append(ctx.posteriors[live] / p)
            stacks += [
                ctx.exchange[kraus[:, :, None], kraus[:, None, :]] / ctx.probs[idx][:, None, None]
                for idx, kraus in ctx._groups
            ]
        spectra = _state_entropies(stacks)
        out, start = [], 0
        for ctx in ctxs:
            n = len(ctx._live)
            s = spectra[start : start + 3 * n + 1]
            out.append((ctx._per_outcome(np.concatenate([s[:n], s[n + 1 :]])), float(s[n])))
            start += 3 * n + 1
        return out

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
    their total weight is reported, never silently renormalized.  The
    spectra come from the batch functions of :func:`balance_reports`, run
    on a batch of one.
    """
    return _report(_analysis(instr, rho))


def balance_reports(pairs: Iterable[tuple[Instrument, LabeledState]]) -> list[BalanceReport]:
    """:func:`balance_report` of every (instrument, state) pair, in one pass.

    Each kind of spectrum is one stacked ``numpy.linalg`` call per matrix
    shape over all the pairs, and pairs that share a state object share its
    decomposition and purification, so pairs of shapes already in the batch
    add no SVD or ``eigvalsh`` call.  Every report is bit for bit the one
    :func:`balance_report` gives for its pair.  The pairs are checked in
    order as they are taken, and an error raised by the checks of pair
    ``k`` carries the note ``pair k of the batch``.  The batch holds the
    analysis of every pair, with its ``(K, d_out, d_in)`` arrays, until it
    returns, so its memory grows with the number of pairs.
    """
    ctxs = [_noted(k, _analysis, *pair) for k, pair in enumerate(pairs)]
    for part in (_Analysis.psi, _Analysis.s_input, _Analysis.pure_side, _Analysis._state):
        part.fill(ctxs)
    return [_noted(k, _report, ctx) for k, ctx in enumerate(ctxs)]


def _noted(k: int, fn, *args):
    """``fn(*args)``; a domain error it raises gets the note ``pair k of the batch``."""
    try:
        return fn(*args)
    except InfoBalanceError as exc:
        # as BaseException.add_note, which Python 3.10 lacks
        exc.__notes__ = [*getattr(exc, "__notes__", []), f"pair {k} of the batch"]
        raise


def _report(ctx: _Analysis) -> BalanceReport:
    """The balance report of one analysed pair, after every route check."""
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
    for idx, label in enumerate(ctx.instr.outcome_labels):
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
    return BalanceReport(
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
