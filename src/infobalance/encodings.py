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
    check_povm,
    require_valid,
)

#: slack allowed when comparing classical mutual information against iota
HOLEVO_ATOL = 1e-9


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
    psi = inp.psi_matrix
    labels, parts = [], []
    total = np.zeros((inp.rho.dim,) * 2, dtype=complex)
    for label, element in povm_r.elements:
        part = (psi.conj().T @ element @ psi).T
        part = (part + part.conj().T) / 2.0
        labels.append(label)
        parts.append(part)
        total += part
    dev = float(np.max(np.abs(total - inp.rho.matrix)))
    if dev > 1e-9:
        raise NumericalInconsistency(
            f"letter states do not sum to the input state: max dev {dev:.3e}"
        )
    return Encoding(tuple(labels), povm_r, tuple(parts))


def joint_distribution(enc: Encoding, instr: Instrument) -> np.ndarray:
    """p(x, m) = Tr[E_m(rho_x)] as an (alphabet x outcomes) array."""
    require_valid(instr)
    return _joint_table(enc, np.stack([om.povm_element() for om in instr.outcomes]))


def _joint_table(enc: Encoding, elements: np.ndarray) -> np.ndarray:
    """p(x, m) = Tr(rho_x P_m) for the letter states and the stacked POVM elements."""
    d = elements.shape[-1]
    for part in enc.parts:
        if part.shape != (d, d):
            raise DimensionMismatch(f"letter state shape {part.shape} != ({d}, {d})")
    joint = np.einsum("xij,mji->xm", np.reshape(enc.parts, (-1, d, d)), elements).real
    total = float(joint.sum())
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
    p = np.clip(p, 0.0, None)
    px = p.sum(axis=1)
    pm = p.sum(axis=0)
    value = 0.0
    for xi in range(p.shape[0]):
        for mi in range(p.shape[1]):
            cell = p[xi, mi]
            if cell <= PROB_EPS:
                continue
            value += cell * np.log2(cell / (px[xi] * pm[mi]))
    return 0.0 if -1e-9 <= value < 0.0 else float(value)


def random_reference_povm(rng: np.random.Generator, dim: int) -> Povm:
    """dim+1 weighted Haar-random rank-1 elements plus the PSD deficit."""
    k = dim + 1
    raws = []
    for _ in range(k):
        g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        g /= np.linalg.norm(g)
        raws.append(rng.uniform(0.2, 1.0) * np.outer(g, g.conj()))
    total = np.sum(raws, axis=0)
    top = float(np.linalg.eigvalsh((total + total.conj().T) / 2.0)[-1])
    scale = rng.uniform(0.2, 0.95) / top
    elements = [(str(i), scale * raw) for i, raw in enumerate(raws)]
    deficit = np.eye(dim) - scale * total
    min_eig = float(np.linalg.eigvalsh((deficit + deficit.conj().T) / 2.0)[0])
    if min_eig < -1e-12:
        raise NumericalInconsistency(f"POVM deficit not PSD: {min_eig:.3e}")
    elements.append((str(k), deficit))
    return Povm(dim, tuple(elements))


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

    Trial seeds derive deterministically from the master seed, so the
    reported maximum does not depend on evaluation order.  Raises
    :class:`NumericalInconsistency` if any trial exceeds iota + 1e-9.
    """
    iota = information_gain(instr, inp.rho)
    elements = np.stack([om.povm_element() for om in instr.outcomes])
    best = 0.0
    for child in np.random.SeedSequence(rng_seed).spawn(n_trials):
        rng = np.random.default_rng(child)
        povm = random_reference_povm(rng, inp.r_dim)
        enc = ensemble_from_reference_povm(inp, povm)
        mi = classical_mutual_information(_joint_table(enc, elements))
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
