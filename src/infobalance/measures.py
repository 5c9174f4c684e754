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
routes that share no matrix (see ``_Group``), for a stack of pairs of one
shape at once; the purifying reference spans the support of the state.
The last pair's analysis, a group of one, is kept, so the entry points here
and in :mod:`infobalance.recovery` share its work.
Negative round-off is clipped to zero only for provably nonnegative
quantities.  The reference module :mod:`infobalance.dilation` builds the
joint state instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadDistribution,
    InfoBalanceError,
    InvalidState,
    NumericalInconsistency,
    ZeroProbabilityOutcome,
)
from .objects import (
    PROB_EPS,
    Instrument,
    _check_input_state,
    _outcome_sums,
    _runs,
    _validate_each,
    require_valid,
)
from .tensors import _TRACE_ATOL, ENTROPY_CUTOFF, LabeledState, _clip_nonneg

#: tolerance for agreement between independent computation routes
ROUTE_ATOL = 1e-9
#: tolerance for the balance identity iota + Delta = delta
BALANCE_ATOL = 1e-9
#: the largest TP deviation tau = max|sum E†E - 1| at which S(R) is read from
#: rho's spectrum.  I + H = sum E†E has ||H|| <= d·tau, so the reference
#: ensemble's normalized average is off rho's support state by at most 2||H||
#: and its entropy, to first order, by 2||H||·log2 d: 4e-10 < ROUTE_ATOL at
#: d = 256.  Random and family instruments measure tau <= 1.1e-15.
_TP_EXACT = 1e-13


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


def _entropy_rows(x: np.ndarray) -> np.ndarray:
    """Minus the sum of x log2 x along each row, entries at or below
    ENTROPY_CUTOFF counting as exact zeros.  The sum runs left to right, so
    zero padding never changes a row's value."""
    x = x.copy()
    x[x <= ENTROPY_CUTOFF] = 1.0  # 1 log2 1 is an exact zero
    return -(x * np.log2(x)).cumsum(axis=1)[:, -1]


def _spectra(stacks: list[np.ndarray], decompose) -> np.ndarray:
    """The min(rows, cols) values ``decompose`` gives for each matrix of
    ``stacks`` ``(B, rows, cols)``, one row per matrix in order, zero-padded on
    the right to the widest: one stacked call per distinct matrix shape."""
    starts = list(accumulate(map(len, stacks), initial=0))
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, stack in enumerate(stacks):
        groups.setdefault(stack.shape[1:], []).append(i)
    out = np.zeros((starts[-1], max(map(min, groups))))
    for shape, idx in groups.items():
        rows, start = decompose(np.concatenate([stacks[i] for i in idx])), 0
        for i in idx:
            out[starts[i] : starts[i + 1], : min(shape)] = rows[start : start + len(stacks[i])]
            start += len(stacks[i])
    return out


def _normalized(x: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Each row of ``x`` over its entry of ``norms``; a row of norm 0 reads 0."""
    return np.divide(x, norms[:, None], out=np.zeros(x.shape), where=norms[:, None] > 0.0)


def _singular_values(a: np.ndarray) -> np.ndarray:
    """``np.linalg.svd(a, compute_uv=False)`` of a stack, read from its tall
    orientation, which LAPACK decomposes faster than the wide one."""
    return np.linalg.svd(a.swapaxes(-1, -2) if a.shape[-1] > a.shape[-2] else a, compute_uv=False)


def _schmidt_entropies(splits: list[np.ndarray], probs: np.ndarray) -> np.ndarray:
    """Entropy in bits of the row marginal of each pure state amplitudes/sqrt(p).

    ``splits`` are stacks ``(B, rows, cols)`` of amplitude matrices, one
    stacked SVD per matrix shape; ``probs`` holds the norms² p of all their
    matrices in order, and a matrix given a norm of 0 reads 0.  This is the
    purification side's kernel.
    """
    s = _spectra(splits, _singular_values)
    x = _normalized(s * s, probs)
    if ((np.abs(x.sum(axis=1) - 1.0) > 1e-9) & (probs > 0.0)).any():
        raise BadDistribution("probabilities must be nonnegative and sum to 1")
    # adding 0.0 turns the -0.0 of a pure marginal into 0.0
    return _entropy_rows(x) + 0.0


def _state_entropies(stacks: list[np.ndarray], traces: np.ndarray) -> np.ndarray:
    """Von Neumann entropy in bits of each PSD matrix in the stacks
    ``(B, d, d)`` over its entry of ``traces``, 0 for a trace of 0, from the
    matrix's lower triangle: one stacked ``eigvalsh`` per matrix shape.  This
    is the state side's kernel."""
    s = _entropy_rows(_normalized(_spectra(stacks, np.linalg.eigvalsh), traces))
    s[((s >= -1e-9) & (s < 0.0)) | (traces <= 0.0)] = 0.0
    return s


class _lazy:
    """A part computed on first use and kept in the instance, as by
    :func:`functools.cached_property` but without its lock: threads that
    compute one part store equal values."""

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


def _vecdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per row of the leading axes the BLAS dot of ``x @ y`` (real ``x``) or
    ``np.vdot(x, y)`` (complex), at the rows' strides, as in ``np.vecdot``."""
    return (x.conj()[..., None, :] @ y[..., :, None])[..., 0, 0]


def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays as one ``(B, ...)`` array; a lone array as a view of it."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _support(w: np.ndarray) -> int:
    """How many of the ascending eigenvalues ``w`` of a state exceed numpy's
    ``matrix_rank`` bound d·eps·w_max: the rows of its purification."""
    return int((w > len(w) * np.finfo(float).eps * w[-1]).sum())


class _Group:
    """Per-outcome spectra of B (state, instrument) pairs of one signature
    (d_in, d_out, r, multiplicities), by two routes.

    The purification sum_i sqrt(w_i) |i>_R |v_i>_Q runs over the r
    eigenvalues above :func:`_support`'s bound, so R spans the support of
    rho.  Given outcome m the dilated state on [R, Qp, App] is pure, with
    amplitudes T_m[k, i, q] = (psi E_{m,k}^T)[i, q], and X is classical, so
    every quantity is a p_m-average of S(R|m), S(Qp|m) and S(App|m).  The
    purification side reads them from the singular values of T_m split three
    ways; the state side from the reference ensemble member psi P_m^T psi†,
    the posterior E_m(rho) and the entropy-exchange matrix Tr(E_k rho E_k'†)
    (Schumacher, PRA 54, 2614, 1996).  Both sides decompose the matrices as
    they stand and divide the spectra, not the matrices, by p_m.  The sides
    share no matrix, so every comparison between them is a numerical
    cross-check.  S(R) of the whole state is S(rho) (see ``s_input``).

    Each part is computed on first use over the leading pair axis, bit for
    bit as in a group of one.  Every outcome is laid out by runs of equal
    multiplicity (:func:`_runs`), which slices select.  One of probability at
    or below PROB_EPS has weight 0: it is decomposed with the others, reads
    0 and enters no sum.
    ``eighs``, if given, holds each pair's ``rho_eighs`` entry.
    """

    def __init__(self, pairs: list[tuple[Instrument, LabeledState]], eighs=None) -> None:
        self.exact = np.array([i.validation_report.tp_deviation <= _TP_EXACT for i, _ in pairs])
        self.mults = tuple(len(om.kraus) for om in pairs[0][0].outcomes)
        self.starts = list(accumulate(self.mults, initial=0))
        self.blocks = list(zip(self.starts, self.mults))  # (start, multiplicity) per outcome
        self.labels = [instr.outcome_labels for instr, _ in pairs]
        self.kraus = _stacked([instr.kraus_stack for instr, _ in pairs])
        self.elements = _stacked([instr.povm_elements for instr, _ in pairs])
        self.states = [rho for _, rho in pairs]
        self.rho = _stacked([rho.matrix for rho in self.states])
        if eighs is not None:
            self.rho_eighs = eighs

    @_lazy
    def rho_eighs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The ascending ``eigh`` of each pair's state (stored exactly Hermitian)."""
        return [np.linalg.eigh(rho.matrix) for rho in self.states]

    @_lazy
    def psi(self) -> np.ndarray:
        """Coefficient matrices ``(B, r, d_in)`` of the purifications, rows
        sqrt(w_i) v_i^T for the r largest eigenvalues in ascending order, each
        C-contiguous as in a batch."""
        r, eighs = _support(self.rho_eighs[0][0]), self.rho_eighs
        rows = {id(e): np.sqrt(e[0][-r:])[:, None] * e[1][:, -r:].T for e in eighs}
        return np.array([rows[id(e)] for e in eighs])

    @_lazy
    def amplitudes(self) -> np.ndarray:
        """T_m of every Kraus operator, ``(B, K, r, d_out)``."""
        return self.psi[:, None] @ self.kraus.transpose(0, 1, 3, 2)

    @_lazy
    def s_input(self) -> np.ndarray:
        """S(R) of the whole dilated state, which is S(rho): the entropy of
        rho's kept eigenvalues over their sum for a pair whose instrument is
        TP to round-off (``_TP_EXACT``).  For a near-TP one it is read from T
        split as R against everything else, the one path on which both routes
        see the same normalized reference state.  A pair with one live outcome
        reads that outcome's S(R|m), so its iota_m is 0.0 exactly."""
        r = self.psi.shape[1]
        w = np.array([e[0][-r:] for e in self.rho_eighs])
        s = _entropy_rows(w / w.cumsum(axis=1)[:, -1:]) + 0.0
        live = self.weights > 0.0
        lone = live.sum(axis=1) == 1
        if (near := ~(lone | self.exact)).any():
            t = self.amplitudes[near]
            flat = t.reshape(len(t), -1)
            split = t.transpose(0, 2, 1, 3).reshape(*t.shape[::2], -1)
            s[near] = _schmidt_entropies([split], _vecdot(flat, flat).real)
        if lone.any():
            s[lone] = self.sides[0][0, lone][live[lone]][:, 0]
        return s

    @_lazy
    def probs(self) -> np.ndarray:
        """p_m ``(B, n)``, the norm² of each outcome's amplitudes."""
        t, starts = self.amplitudes, self.starts
        probs = np.empty((len(t), len(self.mults)))
        for a, b, _ in _runs(self.mults):
            x = t[:, starts[a] : starts[b]].reshape(len(t), b - a, -1)
            probs[:, a:b] = _vecdot(x, x).real
        return probs

    @_lazy
    def weights(self) -> np.ndarray:
        """``probs``, with outcomes of probability at or below PROB_EPS at zero."""
        return np.where(self.probs > PROB_EPS, self.probs, 0.0)

    @_lazy
    def mapped(self) -> np.ndarray:
        """E_k rho for every Kraus operator, ``(B, K, d_out, d_in)``."""
        return self.kraus @ self.rho[:, None]

    @_lazy
    def exchange(self) -> np.ndarray:
        """Tr(E_i rho E_j†) over every pair of Kraus operators, ``(B, K, K)``."""
        flat = self.kraus.reshape(*self.kraus.shape[:2], -1)
        return self.mapped.reshape(flat.shape) @ flat.conj().swapaxes(1, 2)

    @_lazy
    def posteriors(self) -> np.ndarray:
        """E_m(rho), ``(B, n, d_out, d_out)``, bit for bit ``OutcomeMap.apply``."""
        return _outcome_sums(self.mapped @ self.kraus.conj().swapaxes(2, 3), self.mults)

    @_lazy
    def members(self) -> np.ndarray:
        """psi P_m^T psi†, ``(B, n, r, r)``, unnormalized."""
        psi = self.psi[:, None]
        return psi @ self.elements.swapaxes(2, 3) @ psi.conj().swapaxes(2, 3)

    @_lazy
    def sides(self) -> tuple[np.ndarray, np.ndarray]:
        """S(R|m), S(Qp|m), S(App|m) ``(2, B, n, 3)`` of the purification and
        the state side, 0 for excluded outcomes, and S(R) ``(B,)`` of the
        reference ensemble's average sum_m psi P_m^T psi† over its kept weight,
        as each member is over its own.  Given an outcome with one Kraus
        operator [R, Qp] is pure: its R split gives S(Qp|m) as well, and its
        S(App|m) is 0 on both sides without a decomposition."""
        t, w, starts, mults = self.amplitudes, self.weights, self.starts, self.mults
        (B, n), (d_r, d_out) = w.shape, t.shape[2:]
        cells = 3 * np.arange(B * n).reshape(B, n)  # where each outcome's S(R|m) goes in a side
        parts = ([], [])  # per side (matrices, their norms, their flat cells of ``out``)
        for a, b, k in _runs(mults):
            q = w[:, a:b].ravel()
            x = t[:, starts[a] : starts[b]].reshape(-1, k, d_r, d_out)
            at = cells[:, a:b].ravel()
            parts[0].append((x.transpose(0, 2, 1, 3).reshape(len(x), d_r, -1), q,
                             [at] if k > 1 else [at, at + 1]))
            parts[1].append((self.members[:, a:b].reshape(-1, d_r, d_r), q, [at]))
            parts[1].append((self.posteriors[:, a:b].reshape(-1, d_out, d_out), q, [at + 1]))
            if k > 1:
                parts[0].append((x.transpose(0, 3, 1, 2).reshape(len(x), d_out, -1), q, [at + 1]))
                parts[0].append((x.reshape(len(x), k, -1), q, [at + 2]))
                # the diagonal (k, k) blocks of the run's rows and columns
                e = self.exchange[:, starts[a] : starts[b], starts[a] : starts[b]]
                e = e.reshape(-1, b - a, k, b - a, k).diagonal(axis1=1, axis2=3)
                parts[1].append((e.transpose(0, 3, 1, 2).reshape(-1, k, k), q, [at + 2]))
        # the members added one at a time, an excluded one as zeros, in the order of
        # their multiplicities' first appearance: a sum over an axis rounds a batch otherwise
        order = [m for k in dict.fromkeys(mults) for m in range(n) if mults[m] == k]
        total = sum(np.where(w[:, m, None, None] > 0.0, self.members[:, m], 0.0) for m in order)
        parts[1].append((total, sum(w[:, m] for m in order), []))
        out = np.zeros((2, B * n * 3))
        for side, (kernel, part) in enumerate(zip((_schmidt_entropies, _state_entropies), parts)):
            s = kernel([x for x, _, _ in part], np.concatenate([q for _, q, _ in part]))
            start = 0
            for x, _, targets in part:
                for at in targets:
                    out[side, at] = s[start : start + len(x)]
                start += len(x)
        return out.reshape(2, B, n, 3), s[-B:]  # the totals come last on the state side

    @_lazy
    def dno(self) -> list[float]:
        """Disturbance of the outcome-averaged channel of each pair."""
        B = len(self.rho)
        s = _state_entropies([self.posteriors.sum(axis=1), self.exchange], np.ones(2 * B))
        return [a - b + c for a, b, c in zip(self.s_input.tolist(), s[:B].tolist(), s[B:].tolist())]

    @_lazy
    def tables(self) -> list[tuple]:
        """Per pair, as Python floats: the routes of iota (purification, reference
        ensemble), delta (purification, posterior and exchange) and the noise
        (state, purification), clipped as by :func:`_clip_nonneg`, and iota_G;
        S(rho); p_m; and the rows of ``sides`` of each outcome."""
        (sides, s_reference), w = self.sides, self.weights
        # per pair the BLAS dot of ``weights @ column``, at the column's stride
        strided = _vecdot(w, sides.transpose(0, 3, 1, 2))  # (2, 3, B)
        r, q, a = sides.transpose(3, 0, 1, 2)  # each (2, B, n): purification, state
        dots = _vecdot(w, np.array([q - a, r + a - q]))  # (2, 2, B)
        s_input, routes = self.s_input.tolist(), []
        for s_in, s_ref, (r_a, _, _, r_b, q_b, _, d_a, d_b, n_b, n_a) in zip(
            s_input, s_reference.tolist(),
            np.concatenate([strided.reshape(6, -1), dots.reshape(4, -1)]).T.tolist(),
        ):
            routes.append([*map(_clip_nonneg, (s_in - r_a, s_ref - r_b, s_in - d_a, s_ref - d_b,
                                               n_a, n_b)), s_in - q_b])
        return list(zip(routes, s_input, self.probs.tolist(), sides.transpose(1, 2, 0, 3).tolist()))

    def outcome(self, k: int, m: int) -> tuple[float, float, float]:
        """(iota_m, delta_m) of outcome m of pair k from the purification side,
        noise_m from the state side, so iota_m + noise_m = delta_m is a cross-check."""
        _, s_input, _, sides = self.tables[k]
        (s_r, s_q, s_a), (state_r, state_q, state_a) = sides[m]
        return s_input - s_r, s_input - s_q + s_a, _clip_nonneg(state_r + state_a - state_q)

    def report(self, k: int) -> BalanceReport:
        """The balance report of pair k, after every route check; its sums over
        outcomes are Python float sums, outcome by outcome."""
        routes, _, probs, _ = self.tables[k]
        route_a, route_b = routes[0:6:2], routes[1:6:2]
        for name, a, b in zip(_MEASURES, route_a, route_b):
            if abs(a - b) > ROUTE_ATOL:
                raise NumericalInconsistency(f"{name}: independent routes disagree, {a!r} vs {b!r}")
        rows, sums, excluded, worst = [], [0.0, 0.0, 0.0], 0.0, 0.0
        for m, (label, p) in enumerate(zip(self.labels[k], probs)):
            if p <= PROB_EPS:
                excluded += max(p, 0.0)
                continue
            iota_m, delta_m, noise_m = values = self.outcome(k, m)
            rows.append(OutcomeBalance(label, p, *values))
            sums = [total + p * value for total, value in zip(sums, values)]
            worst = max(worst, abs(iota_m + noise_m - delta_m))
        iota, delta, noise = route_a
        residual = abs(iota + noise - delta)
        if residual > BALANCE_ATOL:
            raise NumericalInconsistency(
                f"balance identity violated: |iota + noise - delta| = {residual:.3e}"
            )
        gaps = [abs(a - b) for a, b in zip(route_a, route_b)]
        gaps += [abs(total - a) for total, a in zip(sums, route_a)] + [worst]
        return BalanceReport(iota, delta, noise, routes[6], tuple(rows), residual,
                             dict(zip(_RESIDUALS, gaps)), excluded)


def _check_pair(instr: Instrument, rho: LabeledState) -> None:
    """The check of every pair the engine analyses: a valid instrument, and a
    state of its input dimension and of unit trace."""
    require_valid(instr)
    _check_input_state(instr, rho)
    tr = float(rho.matrix.trace().real)
    if abs(tr - 1.0) > _TRACE_ATOL:
        raise InvalidState(f"input state has trace {tr}, expected 1")


@lru_cache(maxsize=1)
def _analysis(instr: Instrument, rho: LabeledState) -> _Group:
    """The checked pair as a group of one, kept until a call asks for another
    pair; instruments and states compare by identity and cannot change."""
    _check_pair(instr, rho)
    return _Group([(instr, rho)])


#: the measures whose two routes must agree, in the order they are checked
_MEASURES = ("information gain", "disturbance", "missing information")
#: the keys of ``BalanceReport.residual_routes``, in order
_RESIDUALS = ("iota_routes", "delta_routes", "noise_routes", "iota_aggregation",
              "delta_aggregation", "noise_aggregation", "single_outcome_balance")


def information_gain(instr: Instrument, rho: LabeledState) -> float:
    """Information gain iota in bits: the ``iota`` of :func:`balance_report`,
    so it raises as the report does if any cross-check fails.

    Computed both from the Schmidt spectra of the per-outcome purifications
    and as the chi quantity of the POVM-induced reference ensemble; the two
    must agree within 1e-9.  Depends on the instrument only through its POVM.
    """
    return balance_report(instr, rho).iota


def disturbance(instr: Instrument, rho: LabeledState) -> float:
    """Disturbance delta in bits, with the outcome register kept: the
    ``delta`` of :func:`balance_report`, raising as the report does."""
    return balance_report(instr, rho).delta


def disturbance_no_outcomes(instr: Instrument, rho: LabeledState) -> float:
    """Disturbance of the outcome-averaged channel; >= disturbance by data
    processing, and a strictly looser figure whenever outcomes help."""
    return _analysis(instr, rho).dno[0]


def noise_delta(instr: Instrument, rho: LabeledState) -> float:
    """Missing information Delta = I(R:App|X) in bits; zero iff every outcome
    leaves reference and apparatus in a product state.  The ``noise`` of
    :func:`balance_report`, raising as the report does."""
    return balance_report(instr, rho).noise


def groenewold_gain(instr: Instrument, rho: LabeledState) -> float:
    """Average posterior-entropy gain S(rho) - sum_m p(m) S(rho_m'): the
    ``iota_g`` of :func:`balance_report`, raising as the report does.

    Unlike the information gain this depends on the particular state
    reduction maps and can be negative.
    """
    return balance_report(instr, rho).iota_g


def single_outcome_quantities(
    instr: Instrument, rho: LabeledState, outcome: str
) -> tuple[float, float, float]:
    """(iota_m, delta_m, noise_m) conditioned on one outcome.

    iota_m and delta_m may be negative; noise_m is a mutual information and
    is not.  They satisfy iota_m + noise_m = delta_m.
    """
    group, idx = _analysis(instr, rho), instr.outcome_index(outcome)
    if (p := float(group.probs[0, idx])) <= PROB_EPS:
        raise ZeroProbabilityOutcome(f"outcome {outcome!r} has probability {p:.3e}")
    return group.outcome(0, idx)


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
    cross-check residual.  Its ``iota_aggregation`` and ``delta_aggregation``
    are |sum_m p_m - 1|·S(rho), up to 1e-8·S(rho) on a validated instrument,
    so a check that ``max(residual_routes) <= 1e-9`` holds only for
    instruments that are trace preserving to round-off.
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
        keys = ("iota", "delta", "noise", "iota_g", "residual_balance")
        return {**{key: getattr(self, key) for key in keys},
                "per_outcome": [dict(vars(row)) for row in self.per_outcome],
                "residual_routes": dict(self.residual_routes),
                "excluded_weight": self.excluded_weight}


def balance_report(instr: Instrument, rho: LabeledState) -> BalanceReport:
    """Evaluate iota, delta, Delta, iota_G, and all per-outcome quantities.

    Raises :class:`NumericalInconsistency` if any pair of independent routes
    disagrees beyond 1e-9 or the balance identity residual exceeds 1e-9.
    Outcomes with probability at or below 1e-12 are excluded from the table;
    their total weight is reported, never silently renormalized.
    """
    return _analysis(instr, rho).report(0)


#: bytes (as :func:`_pair_bytes` estimates them) of one balance_reports block
_BLOCK_BYTES = 1 << 22


def _pair_bytes(instr: Instrument) -> int:
    """About the bytes an analysis of a pair with ``instr`` holds: complex
    ``(d_in + d_out)²`` per Kraus operator, and 4 KiB of Python objects."""
    kraus = sum(om.multiplicity for om in instr.outcomes)
    return 16 * kraus * (instr.d_in + instr.d_out) ** 2 + 4096


def balance_reports(pairs: Iterable[tuple[Instrument, LabeledState]]) -> list[BalanceReport]:
    """:func:`balance_report` of every (instrument, state) pair, bit for bit.

    Pairs are taken in blocks of about ``_BLOCK_BYTES``: a block's instruments
    are validated as stacks, its pairs of one signature (d_in, d_out,
    multiplicities) analysed as one :class:`_Group`, and its analyses dropped
    once its reports are built; the pair the engine keeps is left as it is.
    Errors come in the order of the pairs: one raised by the checks of pair
    ``k`` carries the note ``pair k of the batch``.
    """
    source, reports, done = iter(pairs), [], False
    while not done:
        block, size, failure = [], 0, None
        try:
            for pair in source:
                block.append(pair)
                size += _pair_bytes(pair[0])
                if size >= _BLOCK_BYTES:
                    break
            else:
                done = True
        except Exception as exc:  # raised once the pairs before it are checked
            failure, done = exc, True
        reports += _block_reports(block, len(reports))
        if failure is not None:
            raise failure
    return reports


def _block_reports(pairs: list, offset: int) -> list[BalanceReport]:
    """The reports of a block whose first pair is pair ``offset`` of the batch."""
    _validate_each([instr for instr, _ in pairs])
    groups: dict[tuple, list[int]] = {}
    eighs, sizes = {}, {}  # per state object its ascending eigh and support size
    for k, (instr, rho) in enumerate(pairs):
        _noted(offset + k, _check_pair, instr, rho)
        if id(rho) not in eighs:
            eighs[id(rho)] = eigh = np.linalg.eigh(rho.matrix)
            sizes[id(rho)] = _support(eigh[0])
        key = (instr.d_in, instr.d_out, sizes[id(rho)], *(om.multiplicity for om in instr.outcomes))
        groups.setdefault(key, []).append(k)
    rows: list = [None] * len(pairs)  # the report method of each pair's group, and its index
    for idx in groups.values():
        group = _Group([pairs[k] for k in idx], [eighs[id(pairs[k][1])] for k in idx])
        group.tables  # every spectrum of the group; a kernel's error names no pair
        for j, k in enumerate(idx):
            rows[k] = (group.report, j)
    return [_noted(offset + k, *row) for k, row in enumerate(rows)]


def _noted(k: int, fn, *args):
    """``fn(*args)``; a domain error it raises gets the note ``pair k of the batch``."""
    try:
        return fn(*args)
    except InfoBalanceError as exc:
        # as BaseException.add_note, which Python 3.10 lacks
        exc.__notes__ = [*getattr(exc, "__notes__", []), f"pair {k} of the batch"]
        raise
