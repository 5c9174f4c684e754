import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import infobalance as ib
from conftest import haar_unitary, qstate, random_state


def bell_state():
    return qstate([0.5, 0.5])


class TestDilate:
    def test_single_outcome_unitary(self):
        rng = np.random.default_rng(0)
        u = haar_unitary(rng, 2)
        instr = ib.Instrument(2, 2, (ib.OutcomeMap("0", (u,)),))
        inp = ib.purify(bell_state())
        bundle = ib.dilate(instr, inp)
        np.testing.assert_allclose(bundle.probs, [1.0], atol=1e-12)
        # V = U ⊗ |0> ⊗ |0>: with one outcome and multiplicity 1, V == U
        np.testing.assert_allclose(bundle.isometry, u, atol=1e-14)
        cond = bundle.conditional_states[0]
        assert cond.names == ("R", "Qp", "App")
        expected_vec = (inp.psi_matrix @ u.T).reshape(-1)
        np.testing.assert_allclose(
            cond.matrix, np.outer(expected_vec, expected_vec.conj()), atol=1e-12
        )

    def test_projective_on_maximally_mixed(self):
        instr = ib.projective()
        bundle = ib.dilate(instr, ib.purify(bell_state()))
        np.testing.assert_allclose(bundle.probs, [0.5, 0.5], atol=1e-12)
        for m, cond in enumerate(bundle.conditional_states):
            vec = np.zeros(4, dtype=complex)
            vec[m * 2 + m] = 1.0  # |m>_R |m>_Qp, App is trivial
            np.testing.assert_allclose(
                cond.matrix, np.outer(vec, vec.conj()), atol=1e-12
            )

    def test_filter_schmidt_coefficients(self):
        instr = ib.filter_family(2.0 / 3.0)
        inp = ib.purify(qstate([0.9, 0.1]))
        bundle = ib.dilate(instr, inp)
        cond = bundle.conditional_states[0]
        rho_r = ib.partial_trace(cond, ["R"])
        w = np.linalg.eigvalsh(rho_r.matrix)
        np.testing.assert_allclose(np.sort(w)[-2:], [0.5, 0.5], atol=1e-9)

    def test_isometry_property(self):
        instr = ib.random_instrument(5, 3, 2, 3, 2)
        bundle = ib.dilate(instr, ib.purify(random_state(np.random.default_rng(5), 3)))
        v = bundle.isometry
        np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ib.DimensionMismatch):
            ib.dilate(ib.projective(), ib.purify(qstate([0.5, 0.3, 0.2])))


class TestBundleInvariants:
    @given(st.integers(0, 10**6))
    def test_register_trace_matches_theta_state(self, seed):
        rng = np.random.default_rng(seed)
        instr = ib.random_instrument(seed, 2, 2, 2, 2)
        rho = random_state(rng, 2)
        bundle = ib.dilate(instr, ib.purify(rho))
        got = ib.partial_trace(bundle.theta_full, ["Qp", "X"])
        expected = ib.theta_state(instr, rho)
        np.testing.assert_allclose(got.matrix, expected.matrix, atol=1e-9)

    @given(st.integers(0, 10**6))
    def test_probs_match_outcome_probability(self, seed):
        rng = np.random.default_rng(seed)
        instr = ib.random_instrument(seed, 3, 3, 2, 1)
        rho = random_state(rng, 3)
        bundle = ib.dilate(instr, ib.purify(rho))
        for idx, label in enumerate(instr.outcome_labels):
            assert bundle.probs[idx] == pytest.approx(
                ib.outcome_probability(instr, label, rho), abs=1e-10
            )

    @given(st.integers(0, 10**6))
    def test_theta_full_is_valid_state(self, seed):
        rng = np.random.default_rng(seed)
        instr = ib.random_instrument(seed, 2, 3, 3, 1)
        bundle = ib.dilate(instr, ib.purify(random_state(rng, 2)))
        theta = bundle.theta_full
        ib.LabeledState(theta.labels, theta.matrix)

    def test_conditionals_are_rank_one(self):
        instr = ib.random_instrument(9, 3, 2, 2, 3)
        bundle = ib.dilate(instr, ib.purify(random_state(np.random.default_rng(9), 3)))
        for cond in bundle.conditional_states:
            w = np.linalg.eigvalsh(cond.matrix)
            assert w[-1] >= 1.0 - 1e-9

    def test_conditional_matches_map_action(self):
        # Tr_App of the conditional equals (id ⊗ E_m)(Psi)/p(m)
        rng = np.random.default_rng(10)
        instr = ib.random_instrument(10, 2, 2, 2, 2)
        rho = random_state(rng, 2)
        inp = ib.purify(rho)
        bundle = ib.dilate(instr, inp)
        psi = inp.psi
        for idx, om in enumerate(instr.outcomes):
            joint = np.zeros((4, 4), dtype=complex)
            for e in om.kraus:
                op = np.kron(np.eye(2), e)
                vec = op @ psi
                joint += np.outer(vec, vec.conj())
            joint /= bundle.probs[idx]
            got = ib.partial_trace(bundle.conditional_states[idx], ["R", "Qp"])
            np.testing.assert_allclose(got.matrix, joint, atol=1e-9)

    def test_conditional_reduces_to_posterior(self):
        rng = np.random.default_rng(14)
        instr = ib.random_instrument(14, 2, 3, 2, 2)
        rho = random_state(rng, 2)
        bundle = ib.dilate(instr, ib.purify(rho))
        for label in instr.outcome_labels:
            got = ib.reduced(bundle, ["Qp"], label)
            expected = ib.posterior_state(instr, label, rho)
            np.testing.assert_allclose(got.matrix, expected.matrix, atol=1e-9)

    def test_single_kraus_apparatus_factorizes(self):
        instr = ib.random_instrument(11, 2, 2, 3, 1)
        bundle = ib.dilate(instr, ib.purify(bell_state()))
        for idx in range(instr.n_outcomes):
            joint = ib.reduced(bundle, ["R", "App"], instr.outcome_labels[idx])
            marginal = ib.reduced(bundle, ["R"], instr.outcome_labels[idx])
            np.testing.assert_allclose(
                joint.matrix, np.kron(marginal.matrix, [[1.0]]), atol=1e-10
            )


class TestReduced:
    def test_reference_mirror_spectrum(self):
        rng = np.random.default_rng(12)
        rho = random_state(rng, 3)
        instr = ib.random_instrument(12, 3, 2, 2, 2)
        bundle = ib.dilate(instr, ib.purify(rho))
        r = ib.reduced(bundle, ["R"])
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(r.matrix)),
            np.sort(np.linalg.eigvalsh(rho.matrix)),
            atol=1e-9,
        )

    def test_reference_register_blocks(self):
        rng = np.random.default_rng(13)
        rho = random_state(rng, 2)
        instr = ib.random_instrument(13, 2, 2, 2, 1)
        bundle = ib.dilate(instr, ib.purify(rho))
        got = ib.reduced(bundle, ["R", "X"])
        # contraction oracle: per-outcome reference states weighted by p(m)
        expected = np.zeros((4, 4), dtype=complex)
        for idx, label in enumerate(instr.outcome_labels):
            r_m = ib.reduced(bundle, ["R"], label)
            unit = np.zeros((2, 2))
            unit[idx, idx] = 1.0
            expected += bundle.probs[idx] * np.kron(r_m.matrix, unit)
        np.testing.assert_allclose(got.matrix, expected, atol=1e-10)

    def test_unknown_outcome(self):
        bundle = ib.dilate(ib.projective(), ib.purify(bell_state()))
        with pytest.raises(ib.UnknownOutcome):
            ib.reduced(bundle, ["R"], "nope")

    def test_register_not_in_conditionals(self):
        bundle = ib.dilate(ib.projective(), ib.purify(bell_state()))
        with pytest.raises(ib.UnknownLabel):
            ib.reduced(bundle, ["R", "X"], "0")

    def test_zero_probability_outcome(self):
        bundle = ib.dilate(ib.filter_family(1.0), ib.purify(qstate([0.0, 1.0])))
        with pytest.raises(ib.ZeroProbabilityOutcome):
            ib.reduced(bundle, ["R"], "1")


def private_engine_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of every private name of ``measures`` that ``source``
    imports or reads as an attribute of a name bound to ``measures``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "measures":
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "measures" and node.attr.startswith("_")):
            found.append((node.lineno, node.attr))
    return found


class TestReferenceIndependence:
    """The reference module checks the engine, so it shares none of the
    engine's private helpers."""

    def test_dilation_imports_no_private_name_of_measures(self):
        source = Path(ib.dilation.__file__).read_text(encoding="utf-8")
        assert private_engine_names(source) == []

    @pytest.mark.parametrize("line", [
        "from .measures import _clip_nonneg",
        "from infobalance.measures import ROUTE_ATOL, _entropy_rows",
        "from . import measures\nx = measures._clip_nonneg(0.0)",
    ])
    def test_the_walk_sees_a_private_import(self, line):
        assert private_engine_names(line) != []
        assert private_engine_names(line.replace("_clip_nonneg", "ROUTE_ATOL")
                                    .replace(", _entropy_rows", "")) == []
