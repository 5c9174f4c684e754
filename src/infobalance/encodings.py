"""Classical encodings and the Holevo-bound interpretation of the gain.

Any way of splitting the input state into letter contributions
``rho = sum_x rho_x`` can be produced by measuring a POVM on the purifying
reference.  The classical mutual information between the letters and the
measurement outcomes never exceeds the information gain; this module builds
such encodings, the joint input-output distribution (through two routes),
and a randomized sweep that probes the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDistribution, DimensionMismatch, NumericalInconsistency
from .measures import information_gain
from .objects import (
    PROB_EPS,
    Instrument,
    Povm,
    PurifiedInput,
    _check_povm_stack,
    _lowest_eigenvalues,
    check_povm,
    require_valid,
)
from .tensors import _hermitian

#: slack allowed when comparing classical mutual information against iota
HOLEVO_ATOL = 1e-9
#: bytes of the stacked reference POVMs (complex, 16 bytes an entry) that
#: holevo_check scores at once; the result does not depend on it
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True, eq=False)
class Encoding:
    """Letter decomposition of the input state induced by a reference POVM.

    ``parts[i]`` is the subnormalized contribution of letter ``alphabet[i]``;
    the parts sum to the encoded state.
    """

    alphabet: tuple[str, ...]
    reference_povm: Povm
    parts: tuple[np.ndarray, ...]

    @property
    def weights(self) -> np.ndarray:
        return np.array([float(np.trace(p).real) for p in self.parts])


def ensemble_from_reference_povm(inp: PurifiedInput, povm_r: Povm) -> Encoding:
    """Letter states rho_x = Tr_R[(P_x ⊗ 1) Psi], subnormalized."""
    check_povm(povm_r)
    if povm_r.d != inp.r_dim:
        raise DimensionMismatch(
            f"reference POVM dimension {povm_r.d} != purification r_dim {inp.r_dim}"
        )
    parts = _letter_parts(inp, np.stack([m for _, m in povm_r.elements]))
    return Encoding(povm_r.labels, povm_r, tuple(parts))


def _letter_parts(inp: PurifiedInput, stack: np.ndarray) -> np.ndarray:
    """Letter states (psi† P_x psi)ᵀ of reference POVMs stacked as (..., x, r, r).

    Raises unless the letters of each POVM sum to the input state; the
    message gives the largest deviation.
    """
    psi = inp.psi_matrix
    parts = _hermitian((psi.conj().T @ stack @ psi).swapaxes(-1, -2))
    dev = float(np.max(np.abs(parts.sum(axis=-3) - inp.rho.matrix)))
    if dev > 1e-9:
        raise NumericalInconsistency(
            f"letter states do not sum to the input state: max dev {dev:.3e}"
        )
    return parts


def joint_distribution(enc: Encoding, instr: Instrument) -> np.ndarray:
    """p(x, m) = Tr[E_m(rho_x)] as an (alphabet x outcomes) array."""
    require_valid(instr)
    d = instr.d_in
    for part in enc.parts:
        if part.shape != (d, d):
            raise DimensionMismatch(f"letter state shape {part.shape} != ({d}, {d})")
    return _joint_table(np.stack(enc.parts), instr.povm_elements)


def _joint_table(parts: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """p(x, m) = Tr(rho_x P_m) for letter states (..., x, d, d) and POVM elements (m, d, d).

    Raises unless each table sums to 1 with no cell below -1e-9; the message
    gives the sum furthest from 1 and the lowest cell.
    """
    d = elements.shape[-1]
    flat_parts = parts.reshape(parts.shape[:-2] + (d * d,))
    # Tr(A B) = vec(A) . vec(Bᵀ)
    joint = (flat_parts @ elements.swapaxes(-1, -2).reshape(-1, d * d).T).real
    totals = joint.sum(axis=(-2, -1)).ravel()
    total = float(totals[np.argmax(np.abs(totals - 1.0))])
    if abs(total - 1.0) > 1e-9 or float(joint.min()) < -1e-9:
        raise NumericalInconsistency(
            f"joint distribution malformed: sum = {total}, min = {joint.min():.3e}"
        )
    return joint


def classical_mutual_information(joint) -> float:
    """I(X:M) in bits of a joint probability table; zero cells are skipped."""
    p = np.asarray(joint, dtype=float)
    if p.ndim != 2:
        raise BadDistribution(f"joint table must be 2-D, got shape {p.shape}")
    if float(p.min()) < -1e-9:
        raise BadDistribution(f"negative joint probability {p.min():.3e}")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise BadDistribution(f"joint probabilities sum to {p.sum()}, expected 1")
    return float(_classical_mi(p))


def _classical_mi(joint: np.ndarray) -> np.ndarray:
    """I(X:M) in bits of joint tables (..., x, m).

    Cells at or below PROB_EPS contribute nothing; values in [-1e-9, 0)
    read as 0.
    """
    p = np.clip(joint, 0.0, None)
    product = p.sum(axis=-1, keepdims=True) * p.sum(axis=-2, keepdims=True)
    kept = p > PROB_EPS
    # skipped cells get ratio 1, so their term p * log2(1) is exactly 0
    ratio = np.divide(p, product, out=np.ones_like(p), where=kept)
    value = np.sum(p * np.log2(ratio), axis=(-2, -1))
    return np.where((value >= -1e-9) & (value < 0.0), 0.0, value)


def random_reference_povm(rng: np.random.Generator, dim: int) -> Povm:
    """dim+1 weighted Haar-random rank-1 elements plus the PSD deficit."""
    stack = _reference_stack(*_reference_draws(rng, dim))
    return Povm(dim, tuple((str(i), m) for i, m in enumerate(stack)))


def _reference_draws(
    rng: np.random.Generator, dim: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """The random numbers of one reference POVM, in the order they are drawn.

    Per rank-1 element the real then imaginary parts of its Gaussian vector
    (one row ``(2 * dim,)``) and its weight, uniform in [0.2, 1); the
    overall scale, uniform in [0.2, 0.95), last.
    """
    k = dim + 1
    g = np.empty((k, 2 * dim))
    u = np.empty(k)
    for i in range(k):
        rng.standard_normal(out=g[i])
        u[i] = rng.random()
    # Generator.uniform(a, b) returns a + (b - a) * random(): the same
    # numbers, at three times the call cost
    return g, 0.2 + (1.0 - 0.2) * u, 0.2 + (0.95 - 0.2) * rng.random()


def _reference_stack(g: np.ndarray, u: np.ndarray, s) -> np.ndarray:
    """Reference POVMs ``(..., dim+2, dim, dim)`` from draws stacked over leading axes.

    Element i is ``scale * u_i |g_i><g_i|`` for the normalized vectors g_i,
    where ``scale`` makes the top eigenvalue of their sum equal ``s``; the
    last element is the deficit, which must be PSD (the message gives the
    lowest eigenvalue of any deficit).
    """
    dim = g.shape[-1] // 2
    v = g[..., :dim] + 1j * g[..., dim:]
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    raws = u[..., None, None] * (v[..., :, None] * v.conj()[..., None, :])
    total = raws.sum(axis=-3)
    top = np.linalg.eigvalsh(_hermitian(total))[..., -1]
    scale = (s / top)[..., None, None]
    deficit = np.eye(dim) - scale * total
    low = _lowest_eigenvalues(deficit, 1e-12)
    if low is not None and (min_eig := float(np.min(low))) < -1e-12:
        raise NumericalInconsistency(f"POVM deficit not PSD: {min_eig:.3e}")
    return np.concatenate([scale[..., None] * raws, deficit[..., None, :, :]], axis=-3)


@dataclass(frozen=True)
class HolevoReport:
    """Best classical mutual information found against the gain iota."""

    iota: float
    max_classical_mi: float
    margin: float
    n_trials: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "iota": self.iota,
            "max_classical_mi": self.max_classical_mi,
            "margin": self.margin,
            "n_trials": self.n_trials,
            "seed": self.seed,
        }


def holevo_check(
    inp: PurifiedInput, instr: Instrument, n_trials: int, rng_seed: int
) -> HolevoReport:
    """Probe I(X:M) <= iota with random reference POVMs.

    Each trial draws its reference POVM from its own child of the master
    seed, so the reported maximum does not depend on evaluation order.
    Trials are scored in blocks whose stacked POVMs fit in ``_BLOCK_BYTES``.
    Raises :class:`NumericalInconsistency` if any trial exceeds iota + 1e-9.
    """
    iota = information_gain(instr, inp.rho)
    elements = instr.povm_elements
    dim = inp.r_dim
    labels = tuple(str(i) for i in range(dim + 2))
    block = max(1, _BLOCK_BYTES // (16 * (dim + 2) * dim * dim))
    # spawning in blocks gives the same children as one spawn(n_trials)
    root = np.random.SeedSequence(rng_seed)
    best = 0.0
    for start in range(0, n_trials, block):
        draws = [
            _reference_draws(np.random.default_rng(child), dim)
            for child in root.spawn(min(block, n_trials - start))
        ]
        g, u, s = (np.array(column) for column in zip(*draws))
        stack = _reference_stack(g, u, s)
        _check_povm_stack(stack, labels)
        mi = float(_classical_mi(_joint_table(_letter_parts(inp, stack), elements)).max())
        if mi > iota + HOLEVO_ATOL:
            raise NumericalInconsistency(
                f"Holevo bound violated: I(X:M) = {mi!r} > iota = {iota!r}"
            )
        best = max(best, mi)
    return HolevoReport(
        iota=iota,
        max_classical_mi=best,
        margin=iota - best,
        n_trials=n_trials,
        seed=rng_seed,
    )
