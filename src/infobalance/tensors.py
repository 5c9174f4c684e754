"""Dense complex linear algebra over labeled tensor-product spaces.

A :class:`LabeledState` is a density operator tagged with an ordered list of
named subsystems, so partial traces and reduced states can be requested by
name instead of by axis arithmetic; only :mod:`infobalance.dilation` does.
:func:`entropy_bits` is the entropy of one matrix; the engine in
:mod:`infobalance.measures` runs its own stacked kernels.  Everything here is
a pure function of its inputs; matrices are copied and frozen at
construction.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import partial
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DuplicateLabel,
    InvalidState,
    NegativeEigenvalue,
    NotSquare,
    UnknownLabel,
)

# Eigenvalues below ENTROPY_CUTOFF are treated as exact zeros when summing
# entropies; SUPPORT_CUTOFF separates support from kernel in func_on_support
# only (the engine and the Petz map derive their cuts).  Both are sized to
# swallow round-off of repeated Kronecker/trace passes at dimensions up to a
# few hundred while keeping genuine rank structure intact.
ENTROPY_CUTOFF = 1e-12
SUPPORT_CUTOFF = 1e-10

_HERM_ATOL = 1e-10
_PSD_ATOL = 1e-10
_TRACE_ATOL = 1e-10


def _is_int(n) -> bool:
    """Whether ``n`` is an integer, numpy's included; a ``bool`` is not one."""
    return isinstance(n, Integral) and not isinstance(n, bool)


@dataclass(frozen=True)
class Subsystem:
    """A named tensor factor together with its Hilbert-space dimension."""

    name: str
    dim: int

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise InvalidState("subsystem name must be a nonempty string")
        if not _is_int(self.dim) or self.dim < 1:
            raise InvalidState(f"subsystem {self.name!r} has dimension {self.dim}")


def _read_only(m: np.ndarray) -> np.ndarray:
    """A read-only view of ``m`` over a read-only base, so that no caller can
    make it writeable again with ``setflags(write=True)``."""
    m.setflags(write=False)
    return m.view()


def _hermitian(m: np.ndarray) -> np.ndarray:
    """Hermitian part of each matrix in a stack ``(..., d, d)``."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def _clip_nonneg(x: float) -> float:
    """Zero out round-off negatives and -0.0; values below -1e-9 pass through
    untouched so that genuine violations stay visible to callers and tests."""
    return 0.0 if -1e-9 <= x < 0.0 else x + 0.0


def _square_complex(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    return m


class LabeledState:
    """Density operator over an ordered list of named subsystems.

    Invariants (checked when ``validate=True``): Hermitian within 1e-10,
    positive semidefinite with min eigenvalue >= -1e-10, and unit trace
    within 1e-10.  The stored matrix is symmetrized to (M + M†)/2 and made
    read-only, and the attributes cannot be rebound
    (:class:`dataclasses.FrozenInstanceError`), so instances are safe to
    share between threads.
    """

    __slots__ = ("labels", "matrix")

    def __init__(self, labels: Sequence[Subsystem], matrix, *, validate: bool = True) -> None:
        labels = tuple(labels)
        names = [lab.name for lab in labels]
        if len(set(names)) != len(names):
            raise DuplicateLabel(f"duplicate subsystem names in {names}")
        m = _square_complex(matrix)
        dim = 1
        for lab in labels:
            dim *= lab.dim
        if m.shape[0] != dim:
            raise InvalidState(
                f"matrix dimension {m.shape[0]} != product of label dims {dim}"
            )
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise InvalidState("state matrix contains NaN or Inf entries")
        if validate:
            herm_dev = float(np.max(np.abs(m - m.conj().T)))
            if herm_dev > _HERM_ATOL:
                raise InvalidState(f"not Hermitian: max |M - M†| = {herm_dev:.3e}")
        m = _hermitian(m)
        if validate:
            eigs = np.linalg.eigvalsh(m)
            if float(eigs[0]) < -_PSD_ATOL:
                raise InvalidState(
                    f"not positive semidefinite: min eigenvalue = {eigs[0]:.3e}"
                )
            tr = float(np.trace(m).real)
            if abs(tr - 1.0) > _TRACE_ATOL:
                raise InvalidState(f"trace = {tr}, expected 1")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrix", _read_only(m))

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copies and pickles rebuild through the constructor, not by assignment
        return partial(LabeledState, validate=False), (self.labels, self.matrix)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(lab.name for lab in self.labels)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(lab.dim for lab in self.labels)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{lab.name}:{lab.dim}" for lab in self.labels)
        return f"LabeledState([{parts}], trace={self.trace:.6f})"


def partial_trace(state: LabeledState, keep: Sequence[str]) -> LabeledState:
    """Trace out every subsystem not named in ``keep``.

    The retained subsystems appear in their original relative order
    regardless of the order of ``keep``.
    """
    keep = list(keep)
    if len(set(keep)) != len(keep):
        raise DuplicateLabel(f"repeated names in keep list {keep}")
    names = list(state.names)
    unknown = [k for k in keep if k not in names]
    if unknown:
        raise UnknownLabel(f"unknown subsystem names {unknown}; state has {names}")
    n = len(names)
    if n == 0:
        return state
    keep_set = set(keep)
    kept = [i for i in range(n) if names[i] in keep_set]
    dims = list(state.dims)
    tensor = state.matrix.reshape(dims + dims)
    row = list(range(n))
    col = [n + i if i in set(kept) else i for i in range(n)]
    out = [i for i in kept] + [n + i for i in kept]
    reduced = np.einsum(tensor, row + col, out)
    d_keep = 1
    for i in kept:
        d_keep *= dims[i]
    return LabeledState(
        tuple(state.labels[i] for i in kept), reduced.reshape(d_keep, d_keep), validate=False
    )


def eig_hermitian(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in descending order with matching orthonormal columns.

    The input is symmetrized to (M + M†)/2 before decomposition.
    """
    w, v = np.linalg.eigh(_hermitian(_square_complex(matrix)))
    # stable sort keeps the original basis inside degenerate eigenspaces
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def entropy_bits(matrix) -> float:
    """Von Neumann entropy in bits of a (sub)normalized PSD matrix."""
    w = np.linalg.eigvalsh(_hermitian(_square_complex(matrix)))
    w = w[w > ENTROPY_CUTOFF]
    return _clip_nonneg(float(-np.sum(w * np.log2(w))))


def func_on_support(matrix, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply ``f`` to the spectrum on the support; the kernel maps to zero.

    Eigenvalues at or below 1e-10 are treated as kernel, so e.g.
    ``func_on_support(m, lambda x: x**-0.5)`` is the pseudo-inverse square
    root.  Raises :class:`NegativeEigenvalue` below -1e-8.
    """
    return _on_support(*np.linalg.eigh(_hermitian(_square_complex(matrix))), f)


def _on_support(w: np.ndarray, v: np.ndarray, f, cut=SUPPORT_CUTOFF) -> np.ndarray:
    """``f`` of the matrix (or stack) whose ascending ``eigh`` is ``(w, v)``, on
    the eigenvalues above ``cut`` (``(B, 1)`` for one per matrix); the kernel maps to zero."""
    low = w[..., :1].reshape(-1)
    if (low < -1e-8).any():
        raise NegativeEigenvalue(f"min eigenvalue {low[low < -1e-8][0]:.3e} below -1e-8")
    fw = np.zeros(w.shape)
    mask = w > cut
    if mask.any():
        fw[mask] = f(w[mask])
    return (v * fw[..., None, :]) @ v.conj().swapaxes(-1, -2)
