import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import infobalance as ib
from conftest import qstate, random_state


def projective_reference_povm(d):
    els = []
    for x in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[x, x] = 1.0
        els.append((str(x), m))
    return ib.Povm(d, tuple(els))


class TestEnsembleFromReferencePovm:
    def test_identity_povm(self):
        rng = np.random.default_rng(0)
        rho = random_state(rng, 3)
        inp = ib.purify(rho)
        enc = ib.ensemble_from_reference_povm(
            inp, ib.Povm(3, (("0", np.eye(3)),))
        )
        assert enc.alphabet == ("0",)
        np.testing.assert_allclose(enc.parts[0], rho.matrix, atol=1e-12)

    def test_projective_on_maximally_mixed(self):
        inp = ib.purify(qstate([0.5, 0.5]))
        enc = ib.ensemble_from_reference_povm(inp, projective_reference_povm(2))
        for x in range(2):
            expected = np.zeros((2, 2))
            expected[x, x] = 0.5
            np.testing.assert_allclose(enc.parts[x], expected, atol=1e-12)

    @given(st.integers(0, 10**6), st.integers(2, 4))
    def test_parts_sum_to_state(self, seed, d):
        rng = np.random.default_rng(seed)
        rho = random_state(rng, d)
        inp = ib.purify(rho)
        povm = ib.random_reference_povm(rng, inp.r_dim)
        enc = ib.ensemble_from_reference_povm(inp, povm)
        np.testing.assert_allclose(sum(enc.parts), rho.matrix, atol=1e-9)

    def test_dimension_mismatch(self):
        inp = ib.purify(qstate([0.5, 0.5]))
        with pytest.raises(ib.DimensionMismatch):
            ib.ensemble_from_reference_povm(inp, projective_reference_povm(3))


class TestJointDistribution:
    def test_identity_encoding_row(self):
        rng = np.random.default_rng(1)
        rho = random_state(rng, 2)
        inp = ib.purify(rho)
        instr = ib.random_instrument(1, 2, 2, 3, 1)
        enc = ib.ensemble_from_reference_povm(inp, ib.Povm(2, (("0", np.eye(2)),)))
        joint = ib.joint_distribution(enc, instr)
        expected = [
            ib.outcome_probability(instr, label, rho) for label in instr.outcome_labels
        ]
        np.testing.assert_allclose(joint[0], expected, atol=1e-10)

    def test_matched_projective_is_diagonal(self):
        inp = ib.purify(qstate([0.5, 0.5]))
        enc = ib.ensemble_from_reference_povm(inp, projective_reference_povm(2))
        joint = ib.joint_distribution(enc, ib.projective())
        np.testing.assert_allclose(joint, np.diag([0.5, 0.5]), atol=1e-10)

    @given(st.integers(0, 10**6))
    def test_dual_route_agrees(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_state(rng, 2)
        inp = ib.purify(rho)
        instr = ib.random_instrument(seed, 2, 2, 2, 2)
        povm_r = ib.random_reference_povm(rng, inp.r_dim)
        enc = ib.ensemble_from_reference_povm(inp, povm_r)
        joint = ib.joint_distribution(enc, instr)
        # dual route: p(x, m) = Tr[rho_m^R P_x^R] p(m), with the conditional
        # reference states taken from the instrument POVM
        psi = inp.psi_matrix
        dual = np.zeros_like(joint)
        for mi, (label, element) in enumerate(ib.povm_of(instr).elements):
            weighted = psi @ element.T @ psi.conj().T  # p(m) * rho_m^R
            for xi, (_, p_x) in enumerate(povm_r.elements):
                dual[xi, mi] = float(np.trace(weighted @ p_x).real)
        np.testing.assert_allclose(joint, dual, atol=1e-10)

    def test_letter_dimension_mismatch(self):
        inp = ib.purify(qstate([0.5, 0.3, 0.2]))
        enc = ib.ensemble_from_reference_povm(inp, projective_reference_povm(3))
        with pytest.raises(ib.DimensionMismatch):
            ib.joint_distribution(enc, ib.projective())

    @given(st.integers(0, 10**6))
    def test_marginal_matches_outcome_probability(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_state(rng, 3)
        inp = ib.purify(rho)
        instr = ib.random_instrument(seed, 3, 2, 2, 2)
        enc = ib.ensemble_from_reference_povm(inp, ib.random_reference_povm(rng, 3))
        joint = ib.joint_distribution(enc, instr)
        for mi, label in enumerate(instr.outcome_labels):
            assert joint[:, mi].sum() == pytest.approx(
                ib.outcome_probability(instr, label, rho), abs=1e-9
            )


class TestClassicalMutualInformation:
    def test_product_distribution(self):
        p = np.outer([0.3, 0.7], [0.6, 0.4])
        assert ib.classical_mutual_information(p) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_correlation(self):
        assert ib.classical_mutual_information(np.diag([0.5, 0.5])) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_transpose_symmetric(self):
        rng = np.random.default_rng(2)
        p = rng.random((3, 4))
        p /= p.sum()
        assert ib.classical_mutual_information(p) == pytest.approx(
            ib.classical_mutual_information(p.T), abs=1e-12
        )

    def test_bad_distribution(self):
        with pytest.raises(ib.BadDistribution):
            ib.classical_mutual_information(np.array([[0.7, 0.7]]))


class TestRandomReferencePovm:
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_always_valid(self, seed, d):
        povm = ib.random_reference_povm(np.random.default_rng(seed), d)
        ib.check_povm(povm)
        assert len(povm.elements) == d + 2


class TestHolevoCheck:
    def test_pure_input_all_zero(self):
        instr = ib.random_instrument(3, 2, 2, 2, 2)
        report = ib.holevo_check(ib.purify(qstate([1.0, 0.0])), instr, 25, 7)
        assert report.iota == pytest.approx(0.0, abs=1e-9)
        assert report.max_classical_mi == pytest.approx(0.0, abs=1e-9)

    def test_matched_projective_is_tight(self):
        inp = ib.purify(qstate([0.5, 0.5]))
        enc = ib.ensemble_from_reference_povm(inp, projective_reference_povm(2))
        mi = ib.classical_mutual_information(ib.joint_distribution(enc, ib.projective()))
        iota = ib.information_gain(ib.projective(), qstate([0.5, 0.5]))
        assert mi == pytest.approx(1.0, abs=1e-9)
        assert iota == pytest.approx(1.0, abs=1e-9)

    def test_chi_chain(self):
        # I(X:M) <= chi of the reference ensemble = iota
        rng = np.random.default_rng(4)
        rho = random_state(rng, 2)
        inp = ib.purify(rho)
        instr = ib.random_instrument(4, 2, 2, 2, 2)
        psi = inp.psi_matrix
        ensemble = []
        for label, element in ib.povm_of(instr).elements:
            p = float(np.trace(rho.matrix @ element).real)
            cond = psi @ element.T @ psi.conj().T / p
            ensemble.append((p, ib.LabeledState([ib.Subsystem("R", 2)], cond, validate=False)))
        chi = ib.chi_quantity(ensemble)
        iota = ib.information_gain(instr, rho)
        assert chi == pytest.approx(iota, abs=1e-9)
        report = ib.holevo_check(inp, instr, 30, 11)
        assert report.max_classical_mi <= chi + 1e-9

    def test_report_fields(self):
        instr = ib.projective()
        report = ib.holevo_check(ib.purify(qstate([0.5, 0.5])), instr, 10, 3)
        doc = report.to_dict()
        assert set(doc) == {"iota", "max_classical_mi", "margin", "n_trials", "seed"}
        assert doc["n_trials"] == 10 and doc["seed"] == 3
        assert report.margin == pytest.approx(report.iota - report.max_classical_mi)

    def test_deterministic_maximum(self):
        instr = ib.random_instrument(5, 2, 2, 2, 1)
        inp = ib.purify(qstate([0.6, 0.4]))
        a = ib.holevo_check(inp, instr, 20, 99)
        b = ib.holevo_check(inp, instr, 20, 99)
        assert a.max_classical_mi == b.max_classical_mi

    def test_validation_count_does_not_grow_with_trials(self, monkeypatch):
        calls = []
        real = ib.objects.validate
        monkeypatch.setattr(ib.objects, "validate", lambda i: calls.append(i) or real(i))
        instr = ib.random_instrument(8, 2, 3, 3, 2)
        inp = ib.purify(qstate([0.6, 0.4]))
        counts = []
        for trials in (5, 50):
            calls.clear()
            ib.holevo_check(inp, instr, trials, 1)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @given(st.integers(0, 10**6))
    def test_bound_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_state(rng, 2)
        instr = ib.random_instrument(seed, 2, 2, 2, int(rng.integers(1, 3)))
        report = ib.holevo_check(ib.purify(rho), instr, 10, seed)
        assert report.max_classical_mi <= report.iota + 1e-9
