import dataclasses
import math
import re
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import infobalance as ib
from infobalance import cli, measures, tensors
from conftest import (
    haar_unitary, qstate, random_density, random_state, realize_povm, tp_deviated,
)


def labeled(names_dims, matrix):
    return ib.LabeledState([ib.Subsystem(n, d) for n, d in names_dims], matrix)


def classically_correlated():
    m = np.zeros((4, 4))
    m[0, 0] = m[3, 3] = 0.5
    return labeled([("A", 2), ("B", 2)], m)


def bell_pair():
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    return labeled([("A", 2), ("B", 2)], np.outer(phi, phi))


H2_09 = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))  # entropy of diag(0.9, 0.1)


class TestMutualInformation:
    def test_product_state(self):
        rng = np.random.default_rng(0)
        s = ib.tensor_product(random_state(rng, 2, name="A"), random_state(rng, 3, name="B"))
        assert ib.mutual_information(s, ["A"], ["B"]) == pytest.approx(0.0, abs=1e-9)

    def test_bell_pair(self):
        assert ib.mutual_information(bell_pair(), ["A"], ["B"]) == pytest.approx(2.0, abs=1e-9)

    def test_classically_correlated(self):
        assert ib.mutual_information(classically_correlated(), ["A"], ["B"]) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_overlap_rejected(self):
        with pytest.raises(ib.LabelOverlap):
            ib.mutual_information(bell_pair(), ["A"], ["A"])

    def test_extra_labels_traced_out(self):
        s = ib.tensor_product(bell_pair(), qstate([0.5, 0.5], name="C"))
        assert ib.mutual_information(s, ["A"], ["B"]) == pytest.approx(2.0, abs=1e-9)


class TestConditionalMutualInformation:
    def test_trivial_conditioner(self):
        s = ib.tensor_product(classically_correlated(), qstate([1.0], name="C"))
        cmi = ib.conditional_mutual_information(s, ["A"], ["B"], ["C"])
        assert cmi == pytest.approx(
            ib.mutual_information(s, ["A"], ["B"]), abs=1e-9
        )

    def test_empty_conditioner_equals_mi(self):
        assert ib.conditional_mutual_information(
            classically_correlated(), ["A"], ["B"], []
        ) == pytest.approx(1.0, abs=1e-9)

    def test_conditionally_product(self):
        rng = np.random.default_rng(1)
        blocks = np.zeros((8, 8), dtype=complex)
        for c in range(2):
            joint = np.kron(random_density(rng, 2), random_density(rng, 2))
            unit = np.zeros((2, 2))
            unit[c, c] = 1.0
            blocks += 0.5 * np.kron(joint, unit)
        s = labeled([("A", 2), ("B", 2), ("C", 2)], blocks)
        assert ib.conditional_mutual_information(s, ["A"], ["B"], ["C"]) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_matches_per_outcome_average(self):
        rng = np.random.default_rng(2)
        instr = ib.random_instrument(2, 2, 2, 2, 2)
        rho = random_state(rng, 2)
        bundle = ib.dilate(instr, ib.purify(rho))
        theta_rax = ib.partial_trace(bundle.theta_full, ["R", "App", "X"])
        cmi = ib.conditional_mutual_information(theta_rax, ["R"], ["App"], ["X"])
        avg = sum(
            bundle.probs[i]
            * ib.mutual_information(
                ib.reduced(bundle, ["R", "App"], label), ["R"], ["App"]
            )
            for i, label in enumerate(instr.outcome_labels)
        )
        assert cmi == pytest.approx(avg, abs=1e-9)


class TestCoherentInformation:
    def test_bell_pair(self):
        assert ib.coherent_information(bell_pair(), ["A"], ["B"]) == pytest.approx(1.0, abs=1e-9)

    def test_product_with_pure_target(self):
        rng = np.random.default_rng(3)
        a = random_state(rng, 2, name="A")
        b = labeled([("B", 2)], np.diag([1.0, 0.0]))
        s = ib.tensor_product(a, b)
        expected = -ib.von_neumann_entropy(a)
        assert ib.coherent_information(s, ["A"], ["B"]) == pytest.approx(expected, abs=1e-9)

    def test_maximally_mixed_two_qubits(self):
        s = labeled([("A", 2), ("B", 2)], np.eye(4) / 4)
        assert ib.coherent_information(s, ["A"], ["B"]) == pytest.approx(-1.0, abs=1e-9)


class TestChiQuantity:
    def test_identical_members(self):
        rng = np.random.default_rng(4)
        sigma = random_state(rng, 3)
        assert ib.chi_quantity([(0.4, sigma), (0.6, sigma)]) == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_pure(self):
        ens = [(0.5, qstate([1.0, 0.0])), (0.5, qstate([0.0, 1.0]))]
        assert ib.chi_quantity(ens) == pytest.approx(1.0, abs=1e-9)

    def test_mixed_ensemble_value(self):
        ens = [(0.2, qstate([0.5, 0.5])), (0.8, qstate([1.0, 0.0]))]
        assert ib.chi_quantity(ens) == pytest.approx(H2_09 - 0.2, abs=1e-12)
        assert ib.chi_quantity(ens) == pytest.approx(0.26900, abs=1e-4)

    def test_bad_weights(self):
        with pytest.raises(ib.BadDistribution):
            ib.chi_quantity([(0.7, qstate([0.5, 0.5]))])


class TestClassicalEntropies:
    @pytest.mark.parametrize(
        "call",
        [lambda: ib.shannon_entropy([np.nan, 1.0]), lambda: ib.binary_entropy(np.nan)],
        ids=["shannon", "binary"],
    )
    def test_nan_is_rejected(self, call):
        with pytest.raises(ib.BadDistribution):
            call()

    @pytest.mark.parametrize(
        "probs, want",
        [([0.5, 0.5], 1.0), ([1.0, 0.0], 0.0), ([0.5, 0.5, 1e-13], 1.0), ([], 0.0)],
        ids=["fair", "certain", "below-cutoff", "empty"],
    )
    def test_shannon_entropy_values(self, probs, want):
        got = ib.shannon_entropy(probs)
        # a certain outcome reads +0.0: the sign bit is clear
        assert got == want and math.copysign(1.0, got) == 1.0


class TestInformationGain:
    def test_projective_on_mixed(self):
        assert ib.information_gain(ib.projective(), qstate([0.5, 0.5])) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_pure_input_gives_zero(self):
        instr = ib.random_instrument(5, 2, 2, 2, 2)
        rho = qstate([1.0, 0.0])
        assert ib.information_gain(instr, rho) == pytest.approx(0.0, abs=1e-9)

    def test_filter_value(self):
        got = ib.information_gain(ib.filter_family(2.0 / 3.0), qstate([0.9, 0.1]))
        assert got == pytest.approx(H2_09 - 0.2, abs=1e-9)
        assert got == pytest.approx(0.26900, abs=1e-4)

    @given(st.integers(0, 10**6))
    def test_povm_only_dependence(self, seed):
        rng = np.random.default_rng(seed)
        povm = ib.povm_of(ib.random_instrument(seed, 2, 2, 2, 2))
        rho = random_state(rng, 2)
        values = [
            ib.information_gain(realize_povm(povm, rng), rho) for _ in range(3)
        ]
        assert max(values) - min(values) <= 1e-9


class TestDisturbance:
    def test_unitary_instrument(self):
        u = haar_unitary(np.random.default_rng(6), 2)
        instr = ib.Instrument(2, 2, (ib.OutcomeMap("0", (u,)),))
        assert ib.disturbance(instr, qstate([0.5, 0.5])) == pytest.approx(0.0, abs=1e-9)

    def test_projective_on_mixed(self):
        assert ib.disturbance(ib.projective(), qstate([0.5, 0.5])) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_fully_depolarizing_qubit_channel(self):
        # qubit-to-qubit erasure with 4 Kraus operators: delta = 1 - (1 - 2)
        kraus = tuple(
            np.outer(
                np.eye(2, dtype=complex)[:, i], np.eye(2, dtype=complex)[:, j]
            )
            / np.sqrt(2)
            for i in range(2)
            for j in range(2)
        )
        instr = ib.Instrument(2, 2, (ib.OutcomeMap("0", kraus),))
        assert ib.disturbance(instr, qstate([0.5, 0.5])) == pytest.approx(2.0, abs=1e-9)


class TestDisturbanceNoOutcomes:
    def test_single_outcome_equals_disturbance(self):
        instr = ib.depolarizing(0.7)
        rho = qstate([0.5, 0.5])
        assert ib.disturbance_no_outcomes(instr, rho) == pytest.approx(
            ib.disturbance(instr, rho), abs=1e-9
        )

    def test_projective_on_mixed(self):
        # entropy arithmetic: the averaged channel dephases, so the joint
        # reference-output state is classically correlated and I_c = 0
        got = ib.disturbance_no_outcomes(ib.projective(), qstate([0.5, 0.5]))
        assert got == pytest.approx(1.0, abs=1e-9)
        assert got >= ib.disturbance(ib.projective(), qstate([0.5, 0.5])) - 1e-9

    @given(st.integers(0, 10**6))
    def test_data_processing(self, seed):
        rng = np.random.default_rng(seed)
        instr = ib.random_instrument(seed, 2, 2, 2, 2)
        rho = random_state(rng, 2)
        assert ib.disturbance_no_outcomes(instr, rho) >= ib.disturbance(instr, rho) - 1e-9

    def test_pure_input_reads_nonnegative(self):
        # on a pure state the outcome-averaged channel's disturbance is a sum of
        # entropies that cancel to round-off, of either sign before clipping
        for seed in range(400):
            instr = ib.random_instrument(seed, 2, 2, 2, 1)
            rho = random_state(np.random.default_rng(seed), 2, rank=1)
            dno = ib.disturbance_no_outcomes(instr, rho)
            assert dno >= 0.0 and math.copysign(1.0, dno) == 1.0, (seed, dno)


class TestNoiseDelta:
    def test_single_kraus_vanishes(self):
        instr = ib.random_instrument(7, 3, 3, 3, 1)
        rho = random_state(np.random.default_rng(7), 3)
        assert ib.noise_delta(instr, rho) == pytest.approx(0.0, abs=1e-9)

    def test_fully_depolarizing_qubit_channel(self):
        kraus = tuple(
            np.outer(
                np.eye(2, dtype=complex)[:, i], np.eye(2, dtype=complex)[:, j]
            )
            / np.sqrt(2)
            for i in range(2)
            for j in range(2)
        )
        instr = ib.Instrument(2, 2, (ib.OutcomeMap("0", kraus),))
        assert ib.noise_delta(instr, qstate([0.5, 0.5])) == pytest.approx(2.0, abs=1e-9)

    @given(st.integers(0, 10**6))
    def test_equals_delta_minus_iota(self, seed):
        rng = np.random.default_rng(seed)
        instr = ib.random_instrument(seed, 2, 2, 2, 2)
        rho = random_state(rng, 2)
        assert ib.noise_delta(instr, rho) == pytest.approx(
            ib.disturbance(instr, rho) - ib.information_gain(instr, rho), abs=1e-9
        )

    def test_random_multiplicity_two_is_noisy(self):
        rho = qstate([0.5, 0.5])
        instr = ib.random_instrument(21, 2, 2, 2, 2)
        assert ib.noise_delta(instr, rho) > 1e-3


class TestGroenewoldGain:
    def test_projective_equals_gain(self):
        rho = qstate([0.5, 0.5])
        assert ib.groenewold_gain(ib.projective(), rho) == pytest.approx(1.0, abs=1e-9)

    def test_measure_and_reprepare_is_negative(self):
        plus = labeled([("Q", 2)], np.full((2, 2), 0.5))
        got = ib.groenewold_gain(ib.measure_and_reprepare(), plus)
        assert got == pytest.approx(-1.0, abs=1e-9)

    @given(st.integers(0, 10**6))
    def test_single_kraus_matches_information_gain(self, seed):
        rng = np.random.default_rng(seed)
        instr = ib.random_instrument(seed, 2, 2, 3, 1)
        rho = random_state(rng, 2)
        assert ib.groenewold_gain(instr, rho) == pytest.approx(
            ib.information_gain(instr, rho), abs=1e-9
        )


class TestSingleOutcome:
    def test_projective(self):
        rho = qstate([0.5, 0.5])
        for label in ("0", "1"):
            iota_m, delta_m, noise_m = ib.single_outcome_quantities(
                ib.projective(), rho, label
            )
            assert iota_m == pytest.approx(1.0, abs=1e-9)
            assert delta_m == pytest.approx(1.0, abs=1e-9)
            assert noise_m == pytest.approx(0.0, abs=1e-9)

    def test_filter_negative_values(self):
        iota_0, delta_0, noise_0 = ib.single_outcome_quantities(
            ib.filter_family(2.0 / 3.0), qstate([0.9, 0.1]), "0"
        )
        assert iota_0 == pytest.approx(H2_09 - 1.0, abs=1e-9)
        assert iota_0 == pytest.approx(-0.53100, abs=1e-4)
        assert delta_0 == pytest.approx(-0.53100, abs=1e-4)
        assert noise_0 == pytest.approx(0.0, abs=1e-9)

    def test_unitary_instrument(self):
        u = haar_unitary(np.random.default_rng(8), 2)
        instr = ib.Instrument(2, 2, (ib.OutcomeMap("0", (u,)),))
        out = ib.single_outcome_quantities(instr, qstate([0.5, 0.5]), "0")
        np.testing.assert_allclose(out, (0.0, 0.0, 0.0), atol=1e-9)

    def test_zero_probability(self):
        with pytest.raises(ib.ZeroProbabilityOutcome):
            ib.single_outcome_quantities(ib.filter_family(1.0), qstate([0.0, 1.0]), "1")

    def test_one_outcome_gains_exactly_nothing(self):
        # S(rho) and S(R|m) of a lone outcome come from the same matrix and
        # the same kernel, so iota_m is 0.0 exactly, not merely ~0; d_out up
        # to 8 pads the R spectrum, which must not change its entropy
        rng = np.random.default_rng(12)
        for seed in range(60):
            d_in, d_out, mult = 2 + seed % 5, 1 + seed % 8, 1 + seed % 3
            if d_out * mult < d_in:
                d_out = -(-d_in // mult)
            instr = ib.random_instrument(seed, d_in, d_out, 1, mult)
            rho = random_state(rng, d_in, rank=1 + seed % d_in)
            [row] = ib.balance_report(instr, rho).per_outcome
            assert row.iota_m == 0.0, (seed, d_in, d_out, mult)

    def test_one_live_outcome_among_several_gains_exactly_nothing(self):
        # the other outcomes annihilate the support of rho (p ~ 1e-32), so
        # S(rho) is the live outcome's S(R|m), read from the same spectrum
        rng = np.random.default_rng(13)
        for i in range(200):
            instr, rho = one_live_outcome(rng, 2 + i % 4, 2 + i % 3)
            [row] = ib.balance_report(instr, rho).per_outcome
            assert row.iota_m == 0.0, i

    @given(st.integers(0, 10**6))
    def test_single_outcome_balance(self, seed):
        rng = np.random.default_rng(seed)
        instr = ib.random_instrument(seed, 2, 3, 2, 2)
        rho = random_state(rng, 2)
        for label in instr.outcome_labels:
            if ib.outcome_probability(instr, label, rho) <= 1e-9:
                continue
            iota_m, delta_m, noise_m = ib.single_outcome_quantities(instr, rho, label)
            assert iota_m + noise_m == pytest.approx(delta_m, abs=1e-9)


class TestBalanceReport:
    def test_projective_fixture(self):
        rep = ib.balance_report(ib.projective(), qstate([0.5, 0.5]))
        assert rep.iota == pytest.approx(1.0, abs=1e-9)
        assert rep.delta == pytest.approx(1.0, abs=1e-9)
        assert rep.noise == pytest.approx(0.0, abs=1e-9)
        assert rep.iota_g == pytest.approx(1.0, abs=1e-9)
        assert rep.residual_balance <= 1e-9

    def test_depolarizing_fixture(self):
        rep = ib.balance_report(ib.depolarizing(1.0), qstate([0.5, 0.5]))
        assert rep.iota == pytest.approx(0.0, abs=1e-9)
        assert rep.delta == pytest.approx(2.0, abs=1e-9)
        assert rep.noise == pytest.approx(2.0, abs=1e-9)
        assert rep.iota_g == pytest.approx(-1.0, abs=1e-9)

    def test_zero_probability_outcomes_excluded(self):
        rep = ib.balance_report(ib.filter_family(1.0), qstate([0.0, 1.0]))
        assert [row.label for row in rep.per_outcome] == ["0"]
        assert rep.excluded_weight <= 1e-12

    def test_aggregation_residuals(self):
        rng = np.random.default_rng(9)
        instr = ib.random_instrument(9, 2, 2, 3, 2)
        rep = ib.balance_report(instr, random_state(rng, 2))
        for key in ("iota_aggregation", "delta_aggregation", "noise_aggregation"):
            assert rep.residual_routes[key] <= 1e-9

    def test_to_dict_field_names(self):
        rep = ib.balance_report(ib.projective(), qstate([0.5, 0.5]))
        doc = rep.to_dict()
        assert set(doc) >= {
            "iota",
            "delta",
            "noise",
            "iota_g",
            "residual_balance",
            "per_outcome",
        }
        assert set(doc["per_outcome"][0]) == {"label", "p", "iota_m", "delta_m", "noise_m"}

    @given(st.integers(0, 10**6))
    def test_balance_and_tradeoff_random(self, seed):
        rng = np.random.default_rng(seed)
        d_in = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        mult = int(rng.integers(1, 3))
        instr = ib.random_instrument(seed, d_in, 2, n, mult)
        rep = ib.balance_report(instr, random_state(rng, d_in))
        assert rep.residual_balance <= 1e-9
        assert rep.iota <= rep.delta + 1e-9
        assert rep.noise >= -1e-9


def one_live_outcome(rng, d_in, n, rank=None):
    """An instrument of ``n`` outcomes of two Kraus operators each and a state
    of rank below ``d_in`` (drawn if not given): outcome "0" acts on the
    support of the state, the others only on its kernel, so they have
    probability ~1e-32."""
    shape = (d_in, rank or int(rng.integers(1, d_in)))
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    basis = np.linalg.qr(g)[0]
    support = basis @ basis.conj().T
    kernel = np.eye(d_in) - support
    # a channel on the support beside an instrument of n - 1 outcomes on the kernel
    maps = [*sliced_instrument(rng, d_in, d_in, (2,)).outcomes,
            *sliced_instrument(rng, d_in, d_in, (2,) * (n - 1)).outcomes]
    outcomes = [ib.OutcomeMap(str(m), tuple(k @ (kernel if m else support) for k in om.kraus))
                for m, om in enumerate(maps)]
    rho = g @ g.conj().T
    return ib.Instrument(d_in, d_in, tuple(outcomes)), labeled([("Q", d_in)], rho / np.trace(rho).real)


def dense_reference(instr, rho):
    """Report values from entropies of the explicit joint state on
    [R, Qp, App, X] and of its per-outcome conditional states."""
    bundle = ib.dilate(instr, ib.purify(rho))
    theta = bundle.theta_full
    s_in = ib.von_neumann_entropy(rho)
    rows, iota_g, excluded = [], s_in, 0.0
    for idx, label in enumerate(instr.outcome_labels):
        p = float(bundle.probs[idx])
        if p <= 1e-12:
            excluded += max(p, 0.0)
            continue
        r_qp = ib.reduced(bundle, ["R", "Qp"], label)
        r_app = ib.reduced(bundle, ["R", "App"], label)
        rows.append(
            (
                label,
                p,
                s_in - ib.von_neumann_entropy(ib.reduced(bundle, ["R"], label)),
                s_in - ib.coherent_information(r_qp, ["R"], ["Qp"]),
                ib.mutual_information(r_app, ["R"], ["App"]),
            )
        )
        iota_g -= p * ib.von_neumann_entropy(ib.reduced(bundle, ["Qp"], label))
    return {
        "iota": ib.mutual_information(theta, ["R"], ["X"]),
        "delta": s_in - ib.coherent_information(theta, ["R"], ["Qp", "X"]),
        "noise": ib.conditional_mutual_information(theta, ["R"], ["App"], ["X"]),
        "iota_g": iota_g,
        "no_outcomes": s_in - ib.coherent_information(theta, ["R"], ["Qp"]),
        "rows": rows,
        "excluded": excluded,
    }


def assert_matches_dense_reference(instr, rho):
    rep = ib.balance_report(instr, rho)
    want = dense_reference(instr, rho)
    for key in ("iota", "delta", "noise", "iota_g"):
        assert getattr(rep, key) == pytest.approx(want[key], abs=1e-9), key
    assert ib.disturbance_no_outcomes(instr, rho) == pytest.approx(
        want["no_outcomes"], abs=1e-9
    )
    assert [row.label for row in rep.per_outcome] == [r[0] for r in want["rows"]]
    for row, (_, p, iota_m, delta_m, noise_m) in zip(rep.per_outcome, want["rows"]):
        np.testing.assert_allclose(
            (row.p, row.iota_m, row.delta_m, row.noise_m),
            (p, iota_m, delta_m, noise_m),
            rtol=0,
            atol=1e-9,
        )
    assert rep.excluded_weight == pytest.approx(want["excluded"], abs=1e-12)
    assert rep.residual_balance <= 1e-9
    assert max(rep.residual_routes.values()) <= 1e-9


class TestDenseReference:
    """The per-outcome engine against entropies of the explicit dilation."""

    @given(st.integers(0, 10**6))
    def test_random_instruments(self, seed):
        rng = np.random.default_rng(seed)
        d_in, d_out = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        n, mult = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        while d_out * n * mult < d_in:
            mult += 1
        instr = ib.random_instrument(seed, d_in, d_out, n, mult)
        rank = int(rng.integers(1, d_in + 1))
        assert_matches_dense_reference(instr, random_state(rng, d_in, rank=rank))

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_output_smaller_than_input(self, rank):
        rng = np.random.default_rng(rank)
        instr = ib.random_instrument(rank, 4, 2, 2, 2)
        assert_matches_dense_reference(instr, random_state(rng, 4, rank=rank))

    def test_zero_probability_outcome(self):
        assert_matches_dense_reference(ib.filter_family(1.0), qstate([0.0, 1.0]))

    @given(st.integers(0, 10**6))
    def test_mixed_multiplicities(self, seed):
        rng = np.random.default_rng(seed)
        povm = ib.povm_of(ib.random_instrument(seed, 3, 3, 3, 1))
        instr = realize_povm(povm, rng)
        assert_matches_dense_reference(instr, random_state(rng, 3, rank=2))

    @pytest.mark.parametrize("seed", range(4))
    def test_single_kraus_runs_beside_a_multi_kraus_run(self, seed):
        rng = np.random.default_rng(seed)
        instr = sliced_instrument(rng, 4, 3, (1, 3, 1))
        assert_matches_dense_reference(instr, random_state(rng, 4, rank=1 + seed))

    @pytest.mark.parametrize("d_in", [2, 3, 5])
    def test_lone_live_outcome_among_three(self, d_in):
        assert_matches_dense_reference(*one_live_outcome(np.random.default_rng(d_in), d_in, 3))

    @staticmethod
    def near_pure_state():
        """Eigenvalues (1-2e-8, 1e-8, 1e-8) in a Haar basis: spectral weight
        above ENTROPY_CUTOFF but below 1e-6."""
        u = ib.haar_isometry(np.random.default_rng(0), 3, 3)
        return qstate(u @ np.diag([1 - 2e-8, 1e-8, 1e-8]) @ u.conj().T)

    @pytest.mark.parametrize("n", [1, 3])
    def test_weight_between_cutoff_and_1e6(self, n):
        instr = ib.random_instrument(4, 3, 3, n, 2)
        assert_matches_dense_reference(instr, self.near_pure_state())

    def test_cutoff_defect_is_caught(self, monkeypatch):
        # both engine routes drop the 1e-8 eigenvalues alike and still agree;
        # only the cutoff-free reference sees delta move by 3.3e-7
        for module in (tensors, measures):
            monkeypatch.setattr(module, "ENTROPY_CUTOFF", 1e-6)
        instr = ib.random_instrument(4, 3, 3, 1, 2)
        with pytest.raises(AssertionError, match="delta"):
            assert_matches_dense_reference(instr, self.near_pure_state())


class TestRouteIndependence:
    @pytest.mark.parametrize("kernel", ["_state_entropies", "_schmidt_entropies"])
    def test_one_perturbed_route_is_caught(self, monkeypatch, kernel):
        # the eigvalsh kernel serves only the state side, the SVD kernel only
        # the purification side; a shift of one side must break the balance
        instr = ib.random_instrument(3, 3, 2, 3, 2)
        rho = random_state(np.random.default_rng(3), 3)
        ib.balance_report(instr, rho)
        exact = getattr(measures, kernel)
        monkeypatch.setattr(measures, kernel, lambda *args: exact(*args) + 1e-6)
        # the pair's analysis is kept; compute afresh through the patched kernel
        measures._analysis.cache_clear()
        with pytest.raises(ib.NumericalInconsistency) as info:
            ib.balance_report(instr, rho)
        # a scalar is its report's field, so it fails whichever check the report fails
        for scalar in (ib.information_gain, ib.disturbance, ib.noise_delta, ib.groenewold_gain):
            with pytest.raises(ib.NumericalInconsistency, match=f"^{re.escape(str(info.value))}$"):
                scalar(instr, rho)
        for label in instr.outcome_labels:
            iota_m, delta_m, noise_m = ib.single_outcome_quantities(instr, rho, label)
            assert abs(iota_m + noise_m - delta_m) == pytest.approx(1e-6, abs=1e-9)


class TestKernelContract:
    """A matrix given a norm of 0 reads exactly 0 in both kernels, without
    an error or a warning, and leaves the other rows' values unchanged."""

    @pytest.mark.parametrize("kernel", ["_state_entropies", "_schmidt_entropies"])
    def test_zero_norm_reads_zero(self, kernel):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 3, 4)) + 1j * rng.standard_normal((3, 3, 4))
        if kernel == "_state_entropies":  # PSD matrices over their traces
            a = a @ a.conj().swapaxes(1, 2)
            norms = np.trace(a, axis1=1, axis2=2).real
        else:  # amplitude matrices over their norms²
            norms = np.sum(np.abs(a) ** 2, axis=(1, 2))
        zero = np.zeros((2, *a.shape[1:]))
        entropies = getattr(measures, kernel)
        kept = entropies([a], norms)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = entropies([zero, a], np.concatenate([np.zeros(2), norms]))
        assert got[:2].tolist() == [0.0, 0.0] and not np.signbit(got[:2]).any()
        np.testing.assert_array_equal(got[2:], kept)
        assert (kept > 0.5).all()


class TestNearTP:
    """Instruments that validate with a TP deviation of up to 1e-8 pass every
    route check: both routes normalize the reference state they read.  The
    iota and delta aggregation residuals are |sum_m p_m - 1|·S(rho), up to
    1.6e-8 here: the rows are weighted by p_m that do not sum to 1."""

    @staticmethod
    def assert_routes_agree(instr, rho):
        assert instr.validation_report.passed
        rep = ib.balance_report(instr, rho)
        for key in ("iota_routes", "delta_routes", "noise_routes"):
            assert rep.residual_routes[key] <= 1e-12, key
        excess = abs(sum(row.p for row in rep.per_outcome) - 1.0) * ib.entropy_bits(rho.matrix)
        for key in ("iota_aggregation", "delta_aggregation"):
            assert rep.residual_routes[key] == pytest.approx(excess, rel=0, abs=1e-14), key

    @pytest.mark.parametrize("delta", [5e-9, 9e-9, -9e-9])
    def test_scaled_kraus_operators(self, delta):
        rng = np.random.default_rng(21)
        for seed in range(60):
            instr = tp_deviated(ib.random_instrument(seed, 4, 3, 3, 2), delta * np.eye(4))
            self.assert_routes_agree(instr, random_state(rng, 4))

    @pytest.mark.parametrize("size", [1e-9, 3e-9, 5e-9, 9e-9])
    def test_non_uniform_deviation(self, size):
        rng = np.random.default_rng(22)
        for seed in range(150):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = g + g.conj().T
            instr = tp_deviated(ib.random_instrument(seed, 4, 3, 3, 2), h * size / np.abs(h).max())
            self.assert_routes_agree(instr, random_state(rng, 4))


class TestCallBudget:
    """numpy.linalg calls per entry point, counted rather than timed: each
    kind of spectrum is one stacked call, and the outcome-averaged
    disturbance makes no per-outcome call at all."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(("eigh", "eigvalsh", "svd"), 0)
        for name in counts:
            def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    @pytest.fixture
    def pair(self, calls):
        instr = ib.random_instrument(4, 4, 3, 3, 2)  # d_in 4, d_out 3, n 3, mult 2
        ib.require_valid(instr)
        rho = random_state(np.random.default_rng(4), 4, rank=3)
        for name in calls:
            calls[name] = 0
        return instr, rho

    def test_balance_report(self, pair, calls):
        ib.balance_report(*pair)
        assert calls["eigh"] <= 1 and calls["svd"] <= 4 and calls["eigvalsh"] <= 4, calls

    def test_disturbance_no_outcomes(self, pair, calls):
        ib.disturbance_no_outcomes(*pair)
        assert calls == {"eigh": 1, "eigvalsh": 2, "svd": 0}

    def test_single_kraus_report(self, calls):
        # the R split alone: S(Qp|m) shares its singular values, S(App|m) is 0,
        # and S(rho) is read from the eigh that purifies the state
        instr = ib.random_instrument(4, 4, 3, 3, 1)
        ib.require_valid(instr)
        rho = random_state(np.random.default_rng(4), 4, rank=3)
        for name in calls:
            calls[name] = 0
        ib.balance_report(instr, rho)
        assert calls == {"eigh": 1, "eigvalsh": 1, "svd": 1}

    def test_near_tp_disturbance_no_outcomes(self, calls):
        # a near-TP instrument reads S(R) from the whole-state split
        instr = tp_deviated(ib.random_instrument(4, 4, 3, 3, 2), 5e-9 * np.eye(4))
        ib.require_valid(instr)
        rho = random_state(np.random.default_rng(4), 4, rank=3)
        for name in calls:
            calls[name] = 0
        ib.disturbance_no_outcomes(instr, rho)
        assert calls == {"eigh": 1, "eigvalsh": 2, "svd": 1}

    def test_small_sweep_sequence(self, pair, calls):
        # one analysis serves every call: rho is decomposed once, and the
        # outcome-averaged disturbance reuses the report's purification
        report = ib.balance_report(*pair)
        ib.disturbance_no_outcomes(*pair)
        family = ib.petz_family(*pair)
        ib.fano_bound_check(*pair, family, delta=report.delta)
        assert calls["eigh"] <= 2 and calls["svd"] <= 4 and calls["eigvalsh"] <= 5, calls

    def test_recover_order(self, pair, calls):
        # CLI recover: the Fano check's disturbance reuses the family's eigh of rho
        ib.fano_bound_check(*pair, ib.petz_family(*pair))
        assert calls["eigh"] <= 2 and calls["svd"] <= 4 and calls["eigvalsh"] <= 3, calls

    @pytest.mark.parametrize("family", sorted(ib.FAMILIES))
    def test_sweep(self, calls, capsys, family):
        # one stacked call per matrix shape, however many grid points share
        # it, and one stacked eigh validates every grid instrument
        def spectra(points):
            for name in calls:
                calls[name] = 0
            assert cli.main(["sweep", "--family", family, "--points", points, "--quiet"]) == 0
            capsys.readouterr()
            return calls["svd"], calls["eigvalsh"], calls["eigh"]

        assert spectra("21") == spectra("5")


class TestRecoveryCallBudget:
    """After a report, the Petz functions read the kept analysis: they make no
    ``OutcomeMap.apply`` call, and one stacked ``eigh`` of the posteriors
    whatever the number of outcomes."""

    @pytest.fixture(params=[2, 4], ids=["n2", "n4"])
    def pair(self, request, monkeypatch):
        instr = ib.random_instrument(request.param, 4, 3, request.param, 2)
        rho = random_state(np.random.default_rng(request.param), 4, rank=3)
        ib.balance_report(instr, rho)

        def refused(*args):
            raise AssertionError("OutcomeMap.apply called")

        monkeypatch.setattr(ib.OutcomeMap, "apply", refused)
        calls = []

        def counted(*args, _eigh=np.linalg.eigh, **kwargs):
            calls.append(args[0].shape)
            return _eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return instr, rho, calls

    def test_petz_family_and_fano(self, pair):
        instr, rho, calls = pair
        ib.fano_bound_check(instr, rho, ib.petz_family(instr, rho))
        assert len(calls) == 1

    def test_petz_recovery(self, pair):
        instr, rho, calls = pair
        ib.petz_recovery(instr, rho, instr.outcome_labels[-1])
        assert len(calls) == 1


class TestLazyParts:
    """A part of the analysis built on first use is one that some entry point
    leaves out on a fresh pair; a part every entry point builds is formed
    with the analysis."""

    def test_each_lazy_part_is_left_out_by_an_entry_point(self):
        instr = ib.random_instrument(5, 3, 3, 3, 2)
        rho = random_state(np.random.default_rng(5), 3, rank=2)
        label = instr.outcome_labels[0]

        def unseen_fidelity(i, r):
            family = ib.petz_family(i, r)
            measures._analysis.cache_clear()
            ib.corrected_fidelity(i, r, family)

        calls = [ib.balance_report, ib.disturbance_no_outcomes,
                 lambda i, r: ib.single_outcome_quantities(i, r, label), ib.petz_family,
                 lambda i, r: ib.petz_recovery(i, r, label), unseen_fidelity]
        built = []
        for call in calls:
            measures._analysis.cache_clear()
            call(instr, rho)
            built.append(set(vars(measures._analysis(instr, rho))))
        lazy = {name for name, part in vars(measures._Group).items()
                if isinstance(part, measures._lazy)}
        assert lazy and not lazy & set.intersection(*built), lazy & set.intersection(*built)


def _bits(x):
    """``x`` with every float and array as its bytes, for bit-for-bit equality."""
    if isinstance(x, np.ndarray):
        return x.shape, x.tobytes()
    if isinstance(x, float):
        return np.float64(x).tobytes()
    if isinstance(x, (tuple, list)):
        return [_bits(y) for y in x]
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    return x


#: per-pair entry points, each returning what it computes as plain data
ENTRY_POINTS = {
    "report": lambda i, r: ib.balance_report(i, r).to_dict(),
    "dno": ib.disturbance_no_outcomes,
    "scalars": lambda i, r: [f(i, r) for f in (
        ib.information_gain, ib.disturbance, ib.noise_delta, ib.groenewold_gain)],
    "single": lambda i, r: ib.single_outcome_quantities(i, r, i.outcome_labels[-1]),
    "petz": lambda i, r: ib.petz_family(i, r).channels,
    "petz_one": lambda i, r: ib.petz_recovery(i, r, i.outcome_labels[0]),
    "fidelity": lambda i, r: ib.corrected_fidelity(i, r, ib.petz_family(i, r)),
    "fano": lambda i, r: vars(ib.fano_bound_check(i, r, ib.petz_family(i, r))),
}


def memo_pairs(seed):
    """Four pairs of one input dimension: one instrument with two states, a
    second instrument, and an equal copy of the first."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    instr = ib.random_instrument(int(rng.integers(2**32)), d, 3, 2, 2)
    rho1, rho2 = random_state(rng, d), random_state(rng, d, rank=1)
    return [(instr, rho1), (instr, rho2),
            (ib.random_instrument(int(rng.integers(2**32)), d, 3, 3, 1), rho1),
            (dataclasses.replace(instr), rho1)]


class TestPairMemo:
    """The engine keeps the last pair's analysis; whatever the order of
    calls, every result is bit for bit that of a cold call."""

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.integers(0, 3), st.sampled_from(sorted(ENTRY_POINTS))),
                 min_size=1, max_size=12),
    )
    def test_interleaved_calls_equal_cold_calls(self, seed, calls):
        pairs = memo_pairs(seed)
        warm = [_bits(ENTRY_POINTS[name](*pairs[p])) for p, name in calls]
        for (p, name), got in zip(calls, warm):
            measures._analysis.cache_clear()
            assert got == _bits(ENTRY_POINTS[name](*pairs[p])), (p, name)

    @given(st.integers(0, 2**32 - 1))
    def test_scalars_are_report_fields(self, seed):
        for pair in memo_pairs(seed):
            measures._analysis.cache_clear()
            report = ib.balance_report(*pair)
            measures._analysis.cache_clear()
            assert _bits(ENTRY_POINTS["scalars"](*pair)) == _bits(
                [report.iota, report.delta, report.noise, report.iota_g])

    def test_threads_sharing_the_memo_get_cold_results(self):
        rng = np.random.default_rng(21)
        instr = ib.random_instrument(21, 3, 3, 2, 2)
        pairs = [(instr, random_state(rng, 3)), (instr, random_state(rng, 3, rank=2)),
                 (ib.random_instrument(22, 3, 3, 3, 1), random_state(rng, 3))]
        names = ("report", "fano", "petz_one", "dno")
        expected = {}
        for p, pair in enumerate(pairs):
            for name in names:
                measures._analysis.cache_clear()
                expected[p, name] = _bits(ENTRY_POINTS[name](*pair))
        wrong = []

        def work(offset):
            for step in range(40):
                p, name = (offset + step) % len(pairs), names[step % len(names)]
                if _bits(ENTRY_POINTS[name](*pairs[p])) != expected[p, name]:
                    wrong.append((p, name))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestInputTrace:
    """The pair check of every engine entry point refuses a state whose trace
    is not 1 within the LabeledState tolerance, before any work on the pair."""

    @pytest.fixture(params=[0.5, 1.2])
    def rho(self, request):
        diag = [0.3, 0.2] if request.param < 1.0 else [0.7, 0.5]
        return ib.LabeledState([ib.Subsystem("Q", 2)], np.diag(diag), validate=False)

    @staticmethod
    def refused(rho):
        message = rf"(?m)^input state has trace {np.trace(rho.matrix).real}, expected 1$"
        return pytest.raises(ib.InvalidState, match=message)

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_entry_points(self, rho, name):
        with self.refused(rho):
            ENTRY_POINTS[name](ib.projective(), rho)

    @pytest.mark.parametrize("check", [ib.corrected_fidelity, ib.fano_bound_check])
    def test_family_of_a_normalized_state(self, rho, check):
        instr = ib.projective()
        family = ib.petz_family(instr, qstate([0.5, 0.5]))
        with self.refused(rho):
            check(instr, rho, family)

    @pytest.mark.parametrize("k", [0, 2])
    def test_batch_names_the_pair(self, rho, k):
        pairs = [(ib.projective(), qstate([0.5, 0.5])) for _ in range(3)]
        pairs[k] = (pairs[k][0], rho)
        with self.refused(rho) as info:
            ib.balance_reports(pairs)
        assert info.value.__notes__ == [f"pair {k} of the batch"]

    def test_outcome_functions_still_take_the_state(self, rho):
        instr = ib.projective()
        p = ib.outcome_probability(instr, "0", rho)
        assert p == pytest.approx(rho.matrix[0, 0].real)
        posterior = ib.posterior_state(instr, "0", rho)
        assert posterior.trace == pytest.approx(1.0)


def sliced_instrument(rng, d_in, d_out, mults):
    """One Haar isometry cut into outcomes of multiplicities ``mults``."""
    blocks = iter(np.split(ib.haar_isometry(rng, d_out * sum(mults), d_in), sum(mults)))
    return ib.Instrument(d_in, d_out, tuple(
        ib.OutcomeMap(str(m), tuple(next(blocks) for _ in range(k)))
        for m, k in enumerate(mults)
    ))


def with_null_outcome(instr):
    """``instr`` on twice its input dimension, with an outcome "z" that
    measures the added half, so a state on the first half never sees it."""
    d = instr.d_in
    outcomes = [
        ib.OutcomeMap(om.label, tuple(np.pad(k, ((0, 0), (0, d))) for k in om.kraus))
        for om in instr.outcomes
    ]
    null = np.eye(1, instr.d_out)[0]  # |0> of the output
    kraus = tuple(np.outer(null, np.eye(2 * d)[d + j]) for j in range(d))
    return ib.Instrument(2 * d, instr.d_out, tuple(outcomes) + (ib.OutcomeMap("z", kraus),))


def batch_pairs(rng):
    """Pairs of mixed d_in and multiplicities and states of random rank; about
    one in two has an outcome of probability zero, and one state object
    serves three pairs."""
    pairs = []
    for _ in range(int(rng.integers(2, 6))):
        d, d_out = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        mults = [int(k) for k in rng.integers(1, 4, int(rng.integers(1, 4)))]
        if d_out * sum(mults) < d:
            mults.append(d)
        instr = sliced_instrument(rng, d, d_out, mults)
        rho = random_density(rng, d, int(rng.integers(1, d + 1)))
        if rng.random() < 0.5:
            instr, rho = with_null_outcome(instr), np.pad(rho, ((0, d), (0, d)))
        pairs.append((instr, labeled([("Q", instr.d_in)], rho)))
    shared = pairs[-1][1]
    pairs += [(sliced_instrument(rng, shared.dim, 2, [1, shared.dim]), shared) for _ in range(2)]
    return [pairs[i] for i in rng.permutation(len(pairs))]


class TestBatch:
    """balance_reports analyses many pairs in one pass; every report is bit
    for bit the one balance_report gives."""

    @given(st.integers(0, 2**32 - 1))
    def test_reports_equal_single_reports(self, seed):
        pairs = batch_pairs(np.random.default_rng(seed))
        batch = [_bits(r.to_dict()) for r in ib.balance_reports(pairs)]
        for pair, got in zip(pairs, batch, strict=True):
            measures._analysis.cache_clear()
            assert got == _bits(ib.balance_report(*pair).to_dict())

    def test_near_tp_and_lone_live_pairs_equal_single_reports(self):
        # one group mixes the three ways of reading S(rho): rho's spectrum,
        # the whole-state split, and the lone live outcome's S(R|m)
        rng = np.random.default_rng(14)
        pairs = []
        for i in range(12):
            instr = ib.random_instrument(i, 4, 4, 3, 2)
            if i % 3 == 2:
                pairs.append(one_live_outcome(rng, 4, 3, rank=2))
                continue
            if i % 3 == 1:
                instr = tp_deviated(instr, 5e-9 * np.eye(4))
            pairs.append((instr, random_state(rng, 4, rank=2)))
        batch = [_bits(r.to_dict()) for r in ib.balance_reports(pairs)]
        for pair, got in zip(pairs, batch, strict=True):
            measures._analysis.cache_clear()
            assert got == _bits(ib.balance_report(*pair).to_dict())

    def test_pairs_sharing_a_state_decompose_it_once(self, monkeypatch):
        rng = np.random.default_rng(12)
        rho = random_state(rng, 3)
        pairs = [(ib.random_instrument(s, 3, 2, 2, 2), rho) for s in range(5)]
        for instr, _ in pairs:
            ib.require_valid(instr)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        ib.balance_reports(pairs)
        assert calls == [(3, 3)]

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize(
        "fault, error", [("state", ib.DimensionMismatch), ("instrument", ib.InvalidInstrument)]
    )
    def test_invalid_pair_is_named(self, k, fault, error):
        rng = np.random.default_rng(8)
        pairs = [(ib.random_instrument(s, 2, 2, 2, 1), random_state(rng, 2)) for s in range(4)]
        if fault == "state":
            pairs[k] = (pairs[k][0], random_state(rng, 3))
        else:
            pairs[k] = (ib.Instrument(2, 2, (ib.OutcomeMap("a", (0.5 * np.eye(2),)),)), pairs[k][1])
        with pytest.raises(ib.InfoBalanceError) as info:
            ib.balance_reports(pairs)
        # the error keeps its own type, so callers that catch it still do
        assert type(info.value) is error
        assert info.value.__notes__ == [f"pair {k} of the batch"]

    @pytest.mark.parametrize("kernel", ["_state_entropies", "_schmidt_entropies"])
    def test_perturbed_route_of_one_pair_is_named(self, monkeypatch, kernel):
        # only pair 2 (d = mult = 5) has matrices with a side of 5, and the
        # shift reaches every spectrum of its side, as in TestRouteIndependence
        rng = np.random.default_rng(9)
        pairs = [(ib.random_instrument(s, d, d, 2, m), random_state(rng, d))
                 for s, (d, m) in enumerate([(2, 2), (3, 2), (5, 5), (4, 2)])]
        exact = getattr(measures, kernel)

        def shifted(stacks, *rest):
            shift = [1e-6 * (5 in stack.shape[1:]) for stack in stacks]
            return exact(stacks, *rest) + np.repeat(shift, [len(stack) for stack in stacks])

        monkeypatch.setattr(measures, kernel, shifted)
        with pytest.raises(ib.InfoBalanceError) as info:
            ib.balance_reports(pairs)
        assert type(info.value) is ib.NumericalInconsistency
        assert info.value.__notes__ == ["pair 2 of the batch"]


def group_pairs(rng):
    """2-8 pairs of one signature (d_in, d_out, multiplicities): instruments
    with a null outcome "z" and mixed multiplicities, and states that do or
    do not see "z", of random rank, some of them one shared state object."""
    d, d_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    mults = [int(k) for k in rng.integers(1, 4, int(rng.integers(1, 4)))]
    if d_out * sum(mults) < d:
        mults.append(d)
    shared = None
    pairs = []
    for _ in range(int(rng.integers(2, 9))):
        instr = with_null_outcome(sliced_instrument(rng, d, d_out, mults))
        if shared is not None and rng.random() < 0.4:
            rho = shared
        else:
            rank = int(rng.integers(1, 2 * d + 1))
            rho = random_density(rng, 2 * d, rank)
            if rng.random() < 0.5:  # on the first half only: "z" is excluded
                rho = np.pad(random_density(rng, d, min(rank, d)), ((0, d), (0, d)))
            rho = shared = labeled([("Q", 2 * d)], rho)
        pairs.append((instr, rho))
    return pairs


def faulty(instr, fault):
    """``instr`` with its first Kraus operator made faulty."""
    first, *rest = instr.outcomes
    e, *others = first.kraus
    e = {"nan": np.where(np.eye(*e.shape, dtype=bool), np.nan, e),
         "cp": 1.5 * e, "tp": 0.9 * e, "shape": np.pad(e, ((0, 1), (0, 0)))}[fault]
    return ib.Instrument(instr.d_in, instr.d_out,
                         (ib.OutcomeMap(first.label, (e, *others)), *rest))


class TestGroups:
    """Pairs of one signature are analysed and validated as one stack."""

    def test_no_report_value_is_negative_zero(self):
        # a pure posterior's state-side entropies can cancel to -0.0, which the clip drops
        def negative_zeros(x):
            if isinstance(x, dict):
                return sum(map(negative_zeros, x.values()))
            if isinstance(x, list):
                return sum(map(negative_zeros, x))
            return x == 0.0 and math.copysign(1.0, x) < 0.0

        found, rows = [], 0
        for seed in range(400):
            for k, report in enumerate(ib.balance_reports(group_pairs(np.random.default_rng(seed)))):
                doc = report.to_dict()
                rows += len(doc["per_outcome"])
                found += [(seed, k)] * negative_zeros(doc)
        assert rows == 5041 and found == []

    @given(st.integers(0, 2**32 - 1))
    def test_group_reports_equal_cold_reports(self, seed):
        pairs = group_pairs(np.random.default_rng(seed))
        assert len({(i.d_in, i.d_out, tuple(o.multiplicity for o in i.outcomes))
                    for i, _ in pairs}) == 1
        batch = [_bits(r.to_dict()) for r in ib.balance_reports(pairs)]
        for instr, rho in pairs:
            measures._analysis.cache_clear()
            cold = (dataclasses.replace(instr), rho)
            assert batch.pop(0) == _bits(ib.balance_report(*cold).to_dict())

    @pytest.mark.parametrize("first", [1, 3])
    def test_stacked_validation_equals_lone_validation(self, first):
        rng = np.random.default_rng(30 + first)
        instrs = [sliced_instrument(rng, 3, 2, [1, 2, 2]) for _ in range(8)]
        for k, fault in zip(range(first, 8), ["nan", "cp", "tp", "shape"]):
            instrs[k] = faulty(instrs[k], fault)
        rho = random_state(rng, 3)
        with pytest.raises(ib.InvalidInstrument) as info:
            ib.balance_reports([(instr, rho) for instr in instrs])
        assert info.value.__notes__ == [f"pair {first} of the batch"]
        for instr in instrs:
            lone = ib.validate(dataclasses.replace(instr))
            assert _bits(vars(instr.validation_report)) == _bits(vars(lone))
        assert [instr.validation_report.passed for instr in instrs].count(False) == 4

    def test_non_finite_operators_are_listed_in_kraus_order(self):
        rng = np.random.default_rng(33)
        instrs = [sliced_instrument(rng, 3, 2, [2, 1, 3]) for _ in range(3)]
        bad = [(0, 1, np.nan), (2, 0, np.inf), (2, 2, np.nan), (0, 0, -np.inf)]
        outcomes = [list(om.kraus) for om in instrs[1].outcomes]
        for m, j, value in bad:
            outcomes[m][j] = np.where(np.eye(2, 3, dtype=bool), value, outcomes[m][j])
        instrs[1] = ib.Instrument(3, 2, tuple(ib.OutcomeMap(str(m), tuple(kraus))
                                              for m, kraus in enumerate(outcomes)))
        with pytest.raises(ib.InvalidInstrument):
            ib.balance_reports([(instr, random_state(rng, 3)) for instr in instrs])
        stacked, lone = instrs[1].validation_report, ib.validate(dataclasses.replace(instrs[1]))
        assert _bits(vars(stacked)) == _bits(vars(lone))
        assert lone.issues == tuple(f"non-finite entries: outcome '{m}' Kraus {j}"
                                    for m, j in [(0, 0), (0, 1), (2, 0), (2, 2)])
        assert lone.dims_ok and lone.tp_deviation == np.inf and not lone.passed
        assert lone.outcome_excess == {}

    def test_sweep_of_21_points_is_one_block(self):
        for family in ib.FAMILIES.values():
            assert 21 * measures._pair_bytes(family(0.5)) <= measures._BLOCK_BYTES


class TestBlocks:
    """balance_reports takes its pairs in blocks and drops each block's
    analyses once its reports are built."""

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        instr = ib.random_instrument(0, 2, 2, 2, 2)
        monkeypatch.setattr(measures, "_BLOCK_BYTES", 4 * measures._pair_bytes(instr))
        return 4

    def test_memory_holds_one_block(self, small_blocks):
        rng = np.random.default_rng(40)
        rho = random_state(rng, 2)
        alive = []

        def pairs():
            refs = []
            for k in range(30):
                alive.append(sum(ref() is not None for ref in refs))
                instr = ib.random_instrument(k, 2, 2, 2, 2)
                refs.append(weakref.ref(instr))
                yield instr, rho

        reports = ib.balance_reports(pairs())
        # the block being taken and the pair the library keeps
        assert max(alive) <= small_blocks + 1
        measures._analysis.cache_clear()
        for k, report in enumerate(reports):
            cold = ib.balance_report(ib.random_instrument(k, 2, 2, 2, 2), rho)
            assert _bits(report.to_dict()) == _bits(cold.to_dict())

    def test_kept_pair_costs_one_pair(self, monkeypatch):
        # the pair the library keeps after a batch is a group of one again
        rho = random_state(np.random.default_rng(42), 2)
        pairs = [(ib.random_instrument(k, 2, 2, 2, 2), rho) for k in range(6)]
        ib.balance_reports(pairs)
        shapes = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or real(a))
        dno = ib.disturbance_no_outcomes(*pairs[-1])
        # one output state and one exchange matrix, not one of each per pair
        assert sorted(shapes) == [(1, 2, 2), (1, 4, 4)]
        measures._analysis.cache_clear()
        assert dno == ib.disturbance_no_outcomes(*pairs[-1])

    def test_batch_leaves_the_kept_pair(self):
        rho = random_state(np.random.default_rng(43), 2)
        pairs = [(ib.random_instrument(k, 2, 2, 2, 2), rho) for k in range(4)]
        measures._analysis.cache_clear()
        ib.balance_report(*pairs[1])
        ib.balance_reports(pairs)
        hits = measures._analysis.cache_info().hits
        ib.balance_report(*pairs[1])
        info = measures._analysis.cache_info()
        assert info.hits == hits + 1 and info.currsize == 1

    @pytest.mark.parametrize("bad, raising, named", [(5, 7, 5), (1, 6, 1), (6, 4, None)])
    def test_errors_keep_the_order_of_the_pairs(self, small_blocks, bad, raising, named):
        rng = np.random.default_rng(41)
        rho = random_state(rng, 2)

        def pairs():
            for k in range(12):
                if k == raising:
                    raise ib.InfoBalanceError(f"cannot build pair {k}")
                instr = ib.random_instrument(k, 2, 2, 2, 2)
                yield (faulty(instr, "tp") if k == bad else instr), rho

        with pytest.raises(ib.InfoBalanceError) as info:
            ib.balance_reports(pairs())
        if named is None:
            assert str(info.value) == f"cannot build pair {raising}"
        else:
            assert type(info.value) is ib.InvalidInstrument
            assert info.value.__notes__ == [f"pair {named} of the batch"]


def support_state(rng, d, rank, floor):
    """A state of rank ``rank`` in a Haar basis whose other eigenvalues are
    ``floor``; with floor 0 its kernel is exact: a padded state in a permuted
    basis."""
    if floor == 0.0:
        pick = rng.permutation(d)
        return labeled([("Q", d)], np.pad(random_density(rng, rank), (0, d - rank))[pick][:, pick])
    w = rng.random(d) + 0.1
    w[rank:] = floor
    w[:rank] *= (1.0 - floor * (d - rank)) / w[:rank].sum()
    u = ib.haar_isometry(rng, d, d)
    return labeled([("Q", d)], (u * w) @ u.conj().T)


def support_size(rho):
    """The count of eigenvalues above numpy's matrix_rank bound d·eps·w_max,
    from the ``eigh`` the engine reads (``eigvalsh`` may round otherwise)."""
    w = np.linalg.eigh(rho.matrix)[0]
    return int((w > rho.dim * np.finfo(float).eps * w.max()).sum())


#: eigenvalue floors of rank-deficient states: 0 is an exact kernel, and the
#: others lie below, near and above the support bound d·eps·w_max
FLOORS = [0.0, 1e-17, 1e-15, 1e-13, 1e-11]


class TestSupport:
    """The purification runs over the support of rho: r rows, r the count of
    eigenvalues above numpy's matrix_rank bound."""

    @staticmethod
    def draw(seed, floor):
        """A pair with d_in <= 16 and mixed multiplicities, small enough for
        the dense reference, and a rank-deficient state on ``floor``."""
        rng = np.random.default_rng(seed)
        d, d_out = int(rng.integers(2, 17)), int(rng.integers(1, 3))
        mults = [int(k) for k in rng.integers(1, 4, int(rng.integers(1, 4)))]
        mults[-1] += max(0, -(-d // d_out) - sum(mults))  # the isometry needs d_out·K >= d
        instr = sliced_instrument(rng, d, d_out, mults)
        return instr, support_state(rng, d, int(rng.integers(1, d + 1)), floor)

    @staticmethod
    def values(instr, rho):
        measures._analysis.cache_clear()
        rep = ib.balance_report(instr, rho)
        rows = [(row.p, row.iota_m, row.delta_m, row.noise_m) for row in rep.per_outcome]
        return [rep.iota, rep.delta, rep.noise, rep.iota_g,
                ib.disturbance_no_outcomes(instr, rho), *np.ravel(rows)]

    @given(st.integers(0, 2**32 - 1), st.sampled_from(FLOORS[:2]))
    def test_matches_dense_reference_within_1e12(self, seed, floor):
        # on the floors the support drops; at 1e-13 and above the engine's
        # ENTROPY_CUTOFF, which the reference lacks, moves values by up to 1e-10
        instr, rho = self.draw(seed, floor)
        want = dense_reference(instr, rho)
        rows = [r[1:] for r in want["rows"]]
        keys = ("iota", "delta", "noise", "iota_g", "no_outcomes")
        np.testing.assert_allclose(self.values(instr, rho),
                                   [*(want[k] for k in keys), *np.ravel(rows)], rtol=0, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(FLOORS))
    def test_support_moves_values_by_round_off(self, seed, floor):
        # against a purification over every positive eigenvalue of rho
        instr, rho = self.draw(seed, floor)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measures, "_support", lambda w: int((w > 0.0).sum()))
            every = self.values(instr, rho)
        np.testing.assert_allclose(self.values(instr, rho), every, rtol=0, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(FLOORS))
    def test_psi_has_a_row_per_eigenvalue_above_the_bound(self, seed, floor):
        instr, rho = self.draw(seed, floor)
        measures._analysis.cache_clear()
        psi = measures._analysis(instr, rho).psi
        assert psi.shape == (1, support_size(rho), rho.dim)
        np.testing.assert_allclose(psi[0].T @ psi[0].conj(), rho.matrix, rtol=0, atol=1e-13)

    def test_floors_straddle_the_bound(self):
        # at d = 16 the bound is near 1e-15·w_max: 1e-17 is dropped, 1e-13 kept
        rng = np.random.default_rng(3)
        sizes = {floor: support_size(support_state(rng, 16, 8, floor)) for floor in FLOORS}
        assert sizes[0.0] == sizes[1e-17] == 8 and sizes[1e-13] == sizes[1e-11] == 16

    @pytest.mark.parametrize("shape", [(3, 4, 9), (3, 9, 4), (3, 6, 6), (2, 16, 48), (1, 1, 5)],
                             ids=["wide", "tall", "square", "wide16", "row"])
    def test_tall_orientation_keeps_singular_values(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got, want = measures._singular_values(a), np.linalg.svd(a, compute_uv=False)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.linalg.norm(a)

    @pytest.mark.parametrize("seed", [91, 1296029])
    def test_rank_one_groups_equal_cold_reports(self, seed):
        # pairs of one signature and several support sizes; 1296029 holds a
        # rank-1 pair, whose reference ensemble stack is (B, n, 1, 1), where
        # a reduction over the outcomes rounded otherwise in a batch
        pairs = group_pairs(np.random.default_rng(seed))
        assert len({support_size(rho) for _, rho in pairs}) > 1
        self.assert_batch_equals_cold(pairs)

    @given(st.integers(0, 2**32 - 1))
    def test_rank_one_and_mixed_rank_batch_equals_cold_reports(self, seed):
        rng = np.random.default_rng(seed)
        d, d_out = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        mults = [int(k) for k in rng.integers(1, 4, int(rng.integers(2, 5)))]
        if d_out * sum(mults) < d:
            mults.append(d)
        pairs = []
        for _ in range(int(rng.integers(2, 9))):
            rank = 1 if rng.random() < 0.5 else int(rng.integers(1, d + 1))
            pairs.append((sliced_instrument(rng, d, d_out, mults), random_state(rng, d, rank=rank)))
        self.assert_batch_equals_cold(pairs)

    @staticmethod
    def assert_batch_equals_cold(pairs):
        batch = ib.balance_reports(pairs)
        for (instr, rho), report in zip(pairs, batch, strict=True):
            measures._analysis.cache_clear()
            cold = ib.balance_report(dataclasses.replace(instr), rho)
            assert _bits(report.to_dict()) == _bits(cold.to_dict())


def zero_outcome_case(rng):
    """rho lives on the first half of C^256; outcome "z" projects onto the
    second half and so has probability 0."""
    half = sliced_instrument(rng, 128, 256, (3, 3, 3))
    outcomes = [
        ib.OutcomeMap(om.label, tuple(np.pad(k, ((0, 0), (0, 128))) for k in om.kraus))
        for om in half.outcomes
    ]
    outcomes.append(ib.OutcomeMap("z", (np.diag(np.repeat([0.0, 1.0], 128)),)))
    rho = np.pad(random_density(rng, 128), ((0, 128), (0, 128)))
    return ib.Instrument(256, 256, tuple(outcomes)), labeled([("Q", 256)], rho)


#: d = 256 stress cases: name -> (seed, (instrument, state) from the seeded rng);
#: the full-rank case 256 also builds the Petz family
D256_CASES = {
    256: (256, lambda rng: (ib.random_instrument(256, 256, 256, 4, 3),
                            random_state(rng, 256, rank=256))),
    128: (128, lambda rng: (ib.random_instrument(128, 256, 256, 4, 3),
                            random_state(rng, 256, rank=128))),
    "rank1": (1, lambda rng: (ib.random_instrument(1, 256, 256, 4, 3),
                              random_state(rng, 256, rank=1))),
    "dout64": (64, lambda rng: (ib.random_instrument(64, 256, 64, 4, 3),
                                random_state(rng, 256))),
    "zero-outcome": (5, zero_outcome_case),
    "mixed-mult": (7, lambda rng: (sliced_instrument(rng, 256, 256, (1, 2, 3, 4)),
                                   random_state(rng, 256))),
}


class TestScale:
    @pytest.mark.parametrize("case", list(D256_CASES))
    def test_d256_report(self, case):
        seed, build = D256_CASES[case]
        instr, rho = build(np.random.default_rng(seed))
        rep = ib.balance_report(instr, rho)
        assert rep.residual_balance <= 1e-9
        assert max(rep.residual_routes.values()) <= 1e-9
        assert rep.iota <= rep.delta + 1e-9
        if case == 256:  # the Petz family and the Fano check on a full-rank state
            family = ib.petz_family(instr, rho)
            fano = ib.fano_bound_check(instr, rho, family, delta=rep.delta)
            assert fano.holds and 0.0 <= fano.fidelity <= 1.0
            for kraus in family.channels:
                total = sum(k.conj().T @ k for k in kraus)
                assert np.max(np.abs(total - np.eye(256))) <= 1e-8
