import sys

import numpy as np
import pytest
from hypothesis import settings

import infobalance as ib

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")


def qstate(diag_or_matrix, name="Q"):
    m = np.asarray(diag_or_matrix, dtype=complex)
    if m.ndim == 1:
        m = np.diag(m)
    return ib.LabeledState([ib.Subsystem(name, m.shape[0])], m)


def random_density(rng, d, rank=None):
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_state(rng, d, rank=None, name="Q"):
    return ib.LabeledState([ib.Subsystem(name, d)], random_density(rng, d, rank))


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2.0
    return h / max(np.max(np.abs(np.linalg.eigvalsh(h))), 1e-12)


def haar_unitary(rng, d):
    return ib.haar_isometry(rng, d, d)


def realize_povm(povm, rng, max_mult=3):
    """Random instrument with the given POVM: slices of S_m @ sqrt(P_m)."""
    d = povm.d
    outcomes = []
    for label, element in povm.elements:
        mult = int(rng.integers(1, max_mult + 1))
        root = ib.func_on_support(element, np.sqrt)
        iso = ib.haar_isometry(rng, mult * d, d)
        stacked = iso @ root
        kraus = tuple(stacked[j * d : (j + 1) * d, :] for j in range(mult))
        outcomes.append(ib.OutcomeMap(label, kraus))
    return ib.Instrument(d, d, tuple(outcomes))


def tp_deviated(instr, h):
    """``instr`` with every Kraus operator E replaced by E sqrt(I + h), so that
    sum E†E = I + h: an instrument whose TP deviation is max|h|."""
    root = ib.func_on_support(np.eye(instr.d_in) + h, np.sqrt)
    return ib.Instrument(instr.d_in, instr.d_out, tuple(
        ib.OutcomeMap(om.label, tuple(k @ root for k in om.kraus)) for om in instr.outcomes
    ))


def perturbed_reversible(rng, d, n_out, target_eps, second_kraus=False):
    """Instrument with measured disturbance in [1e-6, 1e-2] near target_eps,
    found by rescaling the perturbation strength of one fixed random draw."""
    rho = random_state(rng, d)
    q = rng.dirichlet(np.ones(n_out))
    hs = [random_hermitian(rng, d) for _ in range(n_out)]
    avg = sum(qi * h for qi, h in zip(q, hs))
    tilted = [h - avg for h in hs]
    scale = max(max(np.max(np.abs(np.linalg.eigvalsh(t))) for t in tilted), 1e-12)
    eta_max = 0.5 / scale
    unitaries = [haar_unitary(rng, d) for _ in range(n_out)]
    extra = [haar_unitary(rng, d) for _ in range(n_out)] if second_kraus else None

    eta = min(0.05, eta_max)
    for attempt in range(25):
        instr = ib.near_trivial(q, tilted, unitaries, eta, extra)
        eps = ib.disturbance(instr, rho)
        in_window = 1e-6 <= eps <= 1e-2
        near_target = 0.25 <= eps / target_eps <= 4.0
        if in_window and (near_target or attempt >= 4):
            return instr, rho, eps
        if eps <= 1e-12:
            eta = min(eta * 4.0, eta_max)
            continue
        # disturbance scales ~ eta^2 for this family
        eta = min(eta * np.sqrt(target_eps / eps), eta_max)
    raise AssertionError("calibration failed to land disturbance in window")


@pytest.fixture(scope="session")
def fixtures_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixtures")
    proj = ib.projective()
    (root / "projective_qubit.json").write_text(ib.dumps_instrument(proj))
    (root / "filter.json").write_text(ib.dumps_instrument(ib.filter_family(2.0 / 3.0)))
    bad = ib.Instrument(
        2,
        2,
        (
            ib.OutcomeMap("0", (1.1 * proj.outcomes[0].kraus[0],)),
            ib.OutcomeMap("1", proj.outcomes[1].kraus),
        ),
    )
    (root / "tp_violating.json").write_text(ib.dumps_instrument(bad))
    (root / "malformed.json").write_text('{"d_in": 2,\n "d_out": ???}\n')
    rho = np.eye(2) / 2
    (root / "mixed_qubit.json").write_text(ib.dumps_state(qstate(np.diag(rho))))
    return root


@pytest.fixture
def validations(monkeypatch):
    """Every instrument passed to ``objects.validate``, counted at each name
    the function is bound to in the package."""
    calls = []
    real = ib.objects.validate

    def counted(instr):
        calls.append(instr)
        return real(instr)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "infobalance" and getattr(module, "validate", None) is real:
            monkeypatch.setattr(module, "validate", counted)
    return calls
