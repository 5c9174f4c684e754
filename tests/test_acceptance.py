"""Acceptance suite: one test per criterion, one PASS line each.

Criteria 1, 2, 3, 6, and 8 share a single randomized sweep of 1000
instruments x 5 input states (dimensions up to 6, outcomes up to 4,
multiplicity up to 3), so the sweep is computed once per session.
"""

from dataclasses import dataclass

import numpy as np
import pytest

import infobalance as ib
from conftest import (
    perturbed_reversible,
    qstate,
    random_density,
    random_state,
    realize_povm,
)

N_INSTRUMENTS = 1000
STATES_PER_INSTRUMENT = 5

H2_09 = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))


@dataclass(frozen=True)
class SweepRecord:
    single_kraus: bool
    iota: float
    delta: float
    noise: float
    iota_g: float
    residual_balance: float
    noise_route_residual: float
    dno: float
    fano_holds: bool


def _draw_dims(rng, big):
    if big:
        d_in = int(rng.integers(4, 7))
        d_out = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        mult = int(rng.integers(1, 4))
    else:
        d_in = int(rng.choice([2, 2, 2, 3]))
        d_out = int(rng.choice([2, 2, 3]))
        n = int(rng.choice([2, 2, 3]))
        mult = int(rng.choice([1, 1, 2, 2, 3]))
    while d_out * n * mult < d_in:
        mult += 1
    return d_in, d_out, n, min(mult, 3)


@pytest.fixture(scope="session")
def random_sweep():
    pairs = []
    for i, ss in enumerate(np.random.SeedSequence(20260810).spawn(N_INSTRUMENTS)):
        rng = np.random.default_rng(ss)
        d_in, d_out, n, mult = _draw_dims(rng, big=(i % 50 == 0))
        instr = ib.random_instrument(int(rng.integers(2**63)), d_in, d_out, n, mult)
        for j in range(STATES_PER_INSTRUMENT):
            rank = d_in if j < 4 else int(rng.integers(1, d_in + 1))
            pairs.append((instr, random_state(rng, d_in, rank=rank)))
    records = []
    for (instr, rho), rep in zip(pairs, ib.balance_reports(pairs)):
        fano = ib.fano_bound_check(instr, rho, ib.petz_family(instr, rho), delta=rep.delta)
        records.append(
            SweepRecord(
                single_kraus=instr.max_multiplicity == 1,
                iota=rep.iota,
                delta=rep.delta,
                noise=rep.noise,
                iota_g=rep.iota_g,
                residual_balance=rep.residual_balance,
                noise_route_residual=rep.residual_routes["noise_routes"],
                dno=ib.disturbance_no_outcomes(instr, rho),
                fano_holds=fano.holds,
            )
        )
    assert len(records) == N_INSTRUMENTS * STATES_PER_INSTRUMENT
    return records


def test_c01_balance_identity(random_sweep):
    worst = max(r.residual_balance for r in random_sweep)
    assert worst <= 1e-9
    print(f"\ncriterion 1 PASS: balance |iota+noise-delta| <= {worst:.3e} "
          f"on {len(random_sweep)} instances")


def test_c02_tradeoff_and_single_kraus_saturation(random_sweep):
    worst_gap = max(r.iota - r.delta for r in random_sweep)
    assert worst_gap <= 1e-9

    rng = np.random.default_rng(77)
    worst_sat = worst_gg = 0.0
    for k in range(200):
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        while d_out * n < d_in:
            n += 1
        instr = ib.random_instrument(int(rng.integers(2**63)), d_in, d_out, n, 1)
        rho = random_state(rng, d_in)
        rep = ib.balance_report(instr, rho)
        worst_sat = max(worst_sat, abs(rep.iota - rep.delta))
        worst_gg = max(worst_gg, abs(rep.iota_g - rep.iota))
    assert worst_sat <= 1e-9
    assert worst_gg <= 1e-9
    print(f"\ncriterion 2 PASS: iota <= delta (max gap {worst_gap:.3e}); "
          f"single-Kraus |iota-delta| <= {worst_sat:.3e}, "
          f"|iota_g-iota| <= {worst_gg:.3e} on 200 instruments")


def test_c03_noise_characterization(random_sweep):
    min_noise = min(r.noise for r in random_sweep)
    assert min_noise >= -1e-9
    worst_sk = max(
        (r.noise for r in random_sweep if r.single_kraus), default=0.0
    )
    assert worst_sk <= 1e-9
    worst_routes = max(r.noise_route_residual for r in random_sweep)
    assert worst_routes <= 1e-9
    n_sk = sum(1 for r in random_sweep if r.single_kraus)
    print(f"\ncriterion 3 PASS: noise >= {min_noise:.3e}; single-Kraus noise "
          f"<= {worst_sk:.3e} ({n_sk} instances); routes agree within {worst_routes:.3e}")


def test_c04_fixtures():
    mixed = qstate([0.5, 0.5])
    rep = ib.balance_report(ib.projective(), mixed)
    assert rep.iota == pytest.approx(1.0, abs=1e-9)
    assert rep.delta == pytest.approx(1.0, abs=1e-9)
    assert rep.noise == pytest.approx(0.0, abs=1e-9)

    rep = ib.balance_report(ib.depolarizing(1.0), mixed)
    assert rep.iota == pytest.approx(0.0, abs=1e-9)
    assert rep.delta == pytest.approx(2.0, abs=1e-9)
    assert rep.noise == pytest.approx(2.0, abs=1e-9)
    assert rep.iota_g == pytest.approx(-1.0, abs=1e-9)

    skewed = qstate([0.9, 0.1])
    filt = ib.filter_family(2.0 / 3.0)
    rep = ib.balance_report(filt, skewed)
    assert rep.iota == pytest.approx(0.26900, abs=1e-4)
    assert rep.delta == pytest.approx(0.26900, abs=1e-4)
    iota_0, delta_0, noise_0 = ib.single_outcome_quantities(filt, skewed, "0")
    assert iota_0 == pytest.approx(-0.53100, abs=1e-4)
    assert delta_0 == pytest.approx(-0.53100, abs=1e-4)
    assert noise_0 <= 1e-9
    print("\ncriterion 4 PASS: projective (1,1,0); erasure (0,2,2) with "
          "iota_g=-1; filter iota=delta=0.26900, outcome-0 values -0.53100")


def test_c05_povm_only_dependence():
    rng = np.random.default_rng(4242)
    worst = 0.0
    for k in range(100):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 4))
        base = ib.random_instrument(int(rng.integers(2**63)), d, d, n, 2)
        povm = ib.povm_of(base)
        rho = random_state(rng, d)
        values = [
            ib.information_gain(realize_povm(povm, rng), rho) for _ in range(5)
        ]
        worst = max(worst, max(values) - min(values))
    assert worst <= 1e-9
    print(f"\ncriterion 5 PASS: iota spread {worst:.3e} over 100 POVMs "
          f"x 5 instrument realizations")


def test_c06_data_processing(random_sweep):
    worst = max(r.delta - r.dno for r in random_sweep)
    assert worst <= 1e-9
    print(f"\ncriterion 6 PASS: discarding outcomes never lowers disturbance "
          f"(max violation {worst:.3e})")


def test_c07_approximate_correction():
    rng = np.random.default_rng(31337)
    achieved_2sqrt = 0
    for k in range(100):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        target = 10 ** rng.uniform(-5.7, -2.3)
        instr, rho, eps = perturbed_reversible(
            rng, d, n, target, second_kraus=bool(rng.integers(2))
        )
        assert 1e-6 <= eps <= 1e-2
        fid = ib.corrected_fidelity(instr, rho, ib.petz_family(instr, rho))
        assert fid >= 1.0 - 4.0 * np.sqrt(eps)
        if fid >= 1.0 - 2.0 * np.sqrt(eps):
            achieved_2sqrt += 1

    for seed in range(20):
        gen = np.random.default_rng(seed)
        d = int(gen.integers(2, 5))
        u = ib.haar_isometry(gen, d, d)
        instr = ib.Instrument(d, d, (ib.OutcomeMap("0", (u,)),))
        rho = random_state(gen, d)
        assert ib.disturbance(instr, rho) <= 1e-9
        fid = ib.corrected_fidelity(instr, rho, ib.petz_family(instr, rho))
        assert fid == pytest.approx(1.0, abs=1e-9)
    print(f"\ncriterion 7 PASS: Petz fidelity >= 1-4*sqrt(eps) on 100 perturbed "
          f"instruments ({achieved_2sqrt}/100 also met the optimal-recovery "
          f"1-2*sqrt(eps)); unitary instruments recover exactly")


def test_c08_fano_converse(random_sweep):
    assert all(r.fano_holds for r in random_sweep)
    print(f"\ncriterion 8 PASS: Fano-type bound holds on all "
          f"{len(random_sweep)} sweep instances")


def test_c09_holevo_bound():
    rng = np.random.default_rng(2468)
    worst_margin = np.inf
    for k in range(50):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        mult = int(rng.integers(1, 3))
        instr = ib.random_instrument(int(rng.integers(2**63)), d, d, n, mult)
        rho = random_state(rng, d)
        report = ib.holevo_check(
            ib.purify(rho), instr, n_trials=100, rng_seed=int(rng.integers(2**31))
        )
        assert report.max_classical_mi <= report.iota + 1e-9
        worst_margin = min(worst_margin, report.margin)

    inp = ib.purify(qstate([0.5, 0.5]))
    els = tuple((str(x), np.diag([1.0 if i == x else 0.0 for i in range(2)]).astype(complex)) for x in range(2))
    enc = ib.ensemble_from_reference_povm(inp, ib.Povm(2, els))
    mi = ib.classical_mutual_information(ib.joint_distribution(enc, ib.projective()))
    iota = ib.information_gain(ib.projective(), qstate([0.5, 0.5]))
    assert mi == pytest.approx(1.0, abs=1e-9)
    assert iota == pytest.approx(1.0, abs=1e-9)
    print(f"\ncriterion 9 PASS: I(X:M) <= iota on 5000 encoding/instrument "
          f"trials (smallest margin {worst_margin:.3e}); matched projective "
          f"case is tight at 1 bit")


def test_c10_numerical_substrate():
    rng = np.random.default_rng(1357)

    worst_entropy = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 7))
        spectrum = rng.dirichlet(np.ones(d))
        basis = ib.haar_isometry(rng, d, d)
        matrix = (basis * spectrum) @ basis.conj().T
        expected = float(-(spectrum[spectrum > 1e-12] * np.log2(spectrum[spectrum > 1e-12])).sum())
        worst_entropy = max(worst_entropy, abs(ib.entropy_bits(matrix) - expected))
    assert worst_entropy <= 1e-9

    worst_trace = 0.0
    for _ in range(500):
        dims = [int(rng.integers(2, 4)) for _ in range(3)]
        labels = [ib.Subsystem(n, d) for n, d in zip("ABC", dims)]
        state = ib.LabeledState(labels, random_density(rng, int(np.prod(dims))), validate=False)
        keep = ["A", "C"]
        got = ib.partial_trace(state, keep).matrix
        # sequential one-axis contraction as the independent oracle
        step = state.matrix.reshape(dims + dims)
        oracle = np.trace(step, axis1=1, axis2=4).reshape(
            dims[0] * dims[2], dims[0] * dims[2]
        )
        worst_trace = max(worst_trace, float(np.max(np.abs(got - oracle))))
    assert worst_trace <= 1e-9

    worst_eig = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 7))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2.0
        w, v = ib.eig_hermitian(h)
        worst_eig = max(
            worst_eig,
            float(np.max(np.abs(v @ np.diag(w) @ v.conj().T - h))),
            float(np.max(np.abs(v.conj().T @ v - np.eye(d)))),
        )
    assert worst_eig <= 1e-9
    print(f"\ncriterion 10 PASS: oracle residuals entropy {worst_entropy:.3e}, "
          f"partial trace {worst_trace:.3e}, eigendecomposition {worst_eig:.3e} "
          f"on 500 instances each")
