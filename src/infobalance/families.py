"""Parameterized instrument families used by the CLI and experiments.

Each family exercises a distinct regime of the information balance:

* ``filter``             single-Kraus two-outcome filter; post-selected
                         quantities can go negative.  t = 0 is the identity
                         (no measurement), t = 1 a projective filter.
* ``partial-dephasing``  single-Kraus family saturating iota = delta along
                         the whole curve; t = 1 is the projective limit.
* ``depolarizing``       single outcome erasing the qubit into the maximally
                         mixed state on a 4-dimensional output; exhibits
                         noise Delta > 0 and a negative Groenewold gain.
* ``projective``         rank-1 projective qubit measurement in a basis
                         rotated by t * pi/4.

``near_trivial`` builds the weak, nearly reversible measurements that the
correction experiments and tests perturb; it is not a one-parameter family.
"""

from __future__ import annotations

import numpy as np

from .errors import InfoBalanceError
from .objects import Instrument, OutcomeMap
from .tensors import func_on_support


def _check_unit(name: str, t: float) -> None:
    if not 0.0 <= t <= 1.0:
        raise InfoBalanceError(f"{name} parameter {t} outside [0, 1]")


def projective(t: float = 0.0) -> Instrument:
    _check_unit("projective", t)
    theta = float(t) * np.pi / 4.0
    c, s = np.cos(theta), np.sin(theta)
    v0 = np.array([c, s], dtype=complex)
    v1 = np.array([-s, c], dtype=complex)
    return Instrument(
        2,
        2,
        (
            OutcomeMap("0", (np.outer(v0, v0.conj()),)),
            OutcomeMap("1", (np.outer(v1, v1.conj()),)),
        ),
    )


def filter_family(t: float = 2.0 / 3.0) -> Instrument:
    """E_0 = diag(1-t, 1) with the completing filter on the other outcome."""
    _check_unit("filter", t)
    a = 1.0 - float(t)
    b = np.sqrt(max(1.0 - a * a, 0.0))
    return Instrument(
        2,
        2,
        (
            OutcomeMap("0", (np.diag([a, 1.0]).astype(complex),)),
            OutcomeMap("1", (np.diag([b, 0.0]).astype(complex),)),
        ),
    )


def partial_dephasing(t: float = 1.0) -> Instrument:
    """Weak computational-basis measurement of strength t."""
    _check_unit("partial-dephasing", t)
    a = np.sqrt((1.0 + float(t)) / 2.0)
    b = np.sqrt((1.0 - float(t)) / 2.0)
    return Instrument(
        2,
        2,
        (
            OutcomeMap("0", (np.diag([a, b]).astype(complex),)),
            OutcomeMap("1", (np.diag([b, a]).astype(complex),)),
        ),
    )


def depolarizing(p: float = 1.0) -> Instrument:
    """Mix of an isometric embedding into 4 dimensions and full erasure.

    At p = 1 the single outcome map is sigma -> Tr(sigma) * I/4.
    """
    _check_unit("depolarizing", p)
    embed = np.zeros((4, 2), dtype=complex)
    embed[0, 0] = embed[1, 1] = 1.0
    kraus: list[np.ndarray] = []
    if p < 1.0:
        kraus.append(np.sqrt(1.0 - p) * embed)
    if p > 0.0:
        for i in range(4):
            for j in range(2):
                op = np.zeros((4, 2), dtype=complex)
                op[i, j] = np.sqrt(p) / 2.0
                kraus.append(op)
    return Instrument(2, 4, (OutcomeMap("0", tuple(kraus)),))


def measure_and_reprepare() -> Instrument:
    """Projective qubit readout followed by re-preparing I/2 (two Kraus per
    outcome); its Groenewold gain is negative on pure inputs."""
    outcomes = []
    for m in range(2):
        kraus = []
        for i in range(2):
            op = np.zeros((2, 2), dtype=complex)
            op[i, m] = 1.0 / np.sqrt(2.0)
            kraus.append(op)
        outcomes.append(OutcomeMap(str(m), tuple(kraus)))
    return Instrument(2, 2, tuple(outcomes))


def near_trivial(q, tilted, unitaries, eta: float, extra=None) -> Instrument:
    """Weak measurement whose POVM is q_m * (1 + eta * tilted_m).

    Outcome m applies ``unitaries[m]`` after the square root of its POVM
    element; with ``extra``, a second Kraus operator ``extra[m]`` of weight
    eta² is mixed in.  The disturbance shrinks like eta² as the perturbation
    is turned off.  ``tilted`` must be Hermitian and keep every element PSD.
    """
    d = tilted[0].shape[0]
    outcomes = []
    for m in range(len(q)):
        element = q[m] * (np.eye(d) + eta * tilted[m])
        root = func_on_support(element, np.sqrt)
        if extra is not None:
            nu = eta * eta
            kraus = (
                np.sqrt(1 - nu) * unitaries[m] @ root,
                np.sqrt(nu) * extra[m] @ root,
            )
        else:
            kraus = (unitaries[m] @ root,)
        outcomes.append(OutcomeMap(str(m), kraus))
    return Instrument(d, d, tuple(outcomes))


FAMILIES = {
    "filter": filter_family,
    "partial-dephasing": partial_dephasing,
    "depolarizing": depolarizing,
    "projective": projective,
}
