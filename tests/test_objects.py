import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import infobalance as ib
from conftest import qstate, random_density, random_state, realize_povm


@pytest.fixture
def projective():
    return ib.projective()


@pytest.fixture
def filter_instr():
    return ib.filter_family(2.0 / 3.0)


class TestValidate:
    def test_projective_passes(self, projective):
        report = ib.validate(projective)
        assert report.passed
        assert report.tp_deviation == pytest.approx(0.0, abs=1e-14)

    def test_scaled_kraus_fails(self, projective):
        bad = ib.Instrument(
            2,
            2,
            (
                ib.OutcomeMap("0", (1.1 * projective.outcomes[0].kraus[0],)),
                ib.OutcomeMap("1", projective.outcomes[1].kraus),
            ),
        )
        report = ib.validate(bad)
        assert not report.passed
        assert report.tp_deviation == pytest.approx(0.21, abs=1e-12)
        assert any("trace preservation" in issue for issue in report.issues)

    def test_filter_passes(self, filter_instr):
        assert ib.validate(filter_instr).passed

    def test_dimension_mismatch_reported(self):
        bad = ib.Instrument(2, 2, (ib.OutcomeMap("0", (np.eye(3),)),))
        report = ib.validate(bad)
        assert not report.passed and not report.dims_ok
        assert any("dimensions" in issue for issue in report.issues)

    @pytest.mark.parametrize("d_in, d_out", [(2.0, 2), (2, 2.0), (2, True), ("2", 2)],
                             ids=["float-in", "float-out", "bool-out", "str-in"])
    def test_non_integer_dimension_reported(self, projective, d_in, d_out):
        report = ib.validate(ib.Instrument(d_in, d_out, projective.outcomes))
        assert not report.passed and not report.dims_ok
        assert report.issues[0] == f"dimensions: d_in={d_in!r}, d_out={d_out!r}"
        assert len(report.issues) == 1

    def test_no_outcomes_reported(self):
        report = ib.validate(ib.Instrument(2, 2, ()))
        assert not report.passed and report.dims_ok
        assert report.issues == ("instrument has no outcomes",)

    def test_duplicate_labels_refused(self, projective):
        twice = (projective.outcomes[0], projective.outcomes[0])
        with pytest.raises(ib.DuplicateLabel, match="duplicate outcome labels"):
            ib.Instrument(2, 2, twice)

    def test_require_valid_raises(self):
        bad = ib.Instrument(2, 2, (ib.OutcomeMap("0", (2.0 * np.eye(2),)),))
        with pytest.raises(ib.InvalidInstrument):
            ib.require_valid(bad)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_entry_reported(self, projective, entry):
        kraus = projective.outcomes[0].kraus[0].copy()
        kraus[1, 0] = entry
        bad = ib.Instrument(
            2, 2, (ib.OutcomeMap("0", (kraus,)), projective.outcomes[1])
        )
        report = ib.validate(bad)
        assert not report.passed and report.dims_ok
        assert report.issues == ("non-finite entries: outcome '0' Kraus 0",)
        with pytest.raises(ib.InvalidInstrument, match="non-finite entries"):
            ib.balance_report(bad, qstate([0.5, 0.5]))


class TestOutcomeMap:
    @pytest.mark.parametrize("kraus", [(), np.zeros((0, 2, 2), dtype=complex)],
                             ids=["tuple", "stack"])
    def test_no_kraus_operators(self, kraus):
        with pytest.raises(ib.InvalidInstrument, match=r"^outcome 'a' has no Kraus operators$"):
            ib.OutcomeMap("a", kraus)

    def test_a_stack_gives_the_operators_of_its_tuple(self):
        stack = ib.random_instrument(3, 3, 2, 2, 2).kraus_stack[:2]
        got, want = ib.OutcomeMap("a", stack).kraus, ib.OutcomeMap("a", tuple(stack)).kraus
        assert [k.shape for k in got] == [k.shape for k in want] == [(2, 3)] * 2
        assert [k.tobytes() for k in got] == [k.tobytes() for k in want]
        assert not any(k.flags.writeable for k in got)


class TestValidatedOnce:
    def test_library_sequence_validates_once(self, validations):
        instr = ib.random_instrument(3, 3, 2, 3, 2)
        rng = np.random.default_rng(3)
        rho = random_state(rng, 3, rank=2)
        report = ib.balance_report(instr, rho)
        ib.disturbance_no_outcomes(instr, rho)
        family = ib.petz_family(instr, rho)
        ib.fano_bound_check(instr, rho, family)
        ib.fano_bound_check(instr, rho, family, delta=report.delta)
        ib.corrected_fidelity(instr, rho, family)
        inp = ib.purify(rho)
        ib.holevo_check(inp, instr, 5, 0)
        encoding = ib.ensemble_from_reference_povm(inp, ib.random_reference_povm(rng, 3))
        ib.joint_distribution(encoding, instr)
        ib.povm_of(instr)
        assert validations == [instr]

    def test_stacks_follow_the_outcomes(self):
        rng = np.random.default_rng(4)
        instr = realize_povm(ib.povm_of(ib.random_instrument(4, 3, 3, 3, 1)), rng)
        assert len({o.multiplicity for o in instr.outcomes}) > 1
        kraus = [k for o in instr.outcomes for k in o.kraus]
        assert np.array_equal(instr.kraus_stack, kraus)
        assert instr.povm_elements.shape == (instr.n_outcomes, 3, 3)
        for o, element in zip(instr.outcomes, instr.povm_elements):
            assert np.array_equal(element, o.povm_element())

    @pytest.mark.parametrize(
        "read",
        [
            lambda instr: instr.outcomes[0].kraus[0],
            lambda instr: instr.kraus_stack,
            lambda instr: instr.povm_elements,
        ],
        ids=["outcome-kraus", "kraus-stack", "povm-elements"],
    )
    def test_memoised_operators_are_read_only(self, read):
        instr = ib.random_instrument(5, 2, 2, 2, 2)
        ib.require_valid(instr)
        array = read(instr)
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 2.0

    @pytest.mark.parametrize(
        "read",
        [
            lambda instr, rho: instr.outcomes[0].kraus[0],
            lambda instr, rho: instr.kraus_stack,
            lambda instr, rho: instr.povm_elements,
            lambda instr, rho: ib.purify(rho).psi,
            lambda instr, rho: rho.matrix,
        ],
        ids=["outcome-kraus", "kraus-stack", "povm-elements", "purified-psi", "state-matrix"],
    )
    def test_read_only_arrays_cannot_be_made_writeable(self, read):
        instr = ib.random_instrument(5, 2, 2, 2, 2)
        rho = random_state(np.random.default_rng(5), 2)
        with pytest.raises(ValueError, match="WRITEABLE"):
            read(instr, rho).setflags(write=True)

    def test_replaced_instrument_validates_afresh(self, validations):
        instr = ib.random_instrument(6, 2, 2, 2, 1)
        ib.require_valid(instr)
        wider = dataclasses.replace(instr, d_in=instr.d_in + 1)
        with pytest.raises(ib.InvalidInstrument, match="dimensions"):
            ib.require_valid(wider)
        assert validations == [instr, wider]


class TestPovmOf:
    def test_projective(self, projective):
        povm = ib.povm_of(projective)
        np.testing.assert_allclose(povm.elements[0][1], np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(povm.elements[1][1], np.diag([0.0, 1.0]), atol=1e-14)

    def test_single_outcome_unitary(self):
        u = ib.haar_isometry(np.random.default_rng(0), 2, 2)
        instr = ib.Instrument(2, 2, (ib.OutcomeMap("0", (u,)),))
        povm = ib.povm_of(instr)
        np.testing.assert_allclose(povm.elements[0][1], np.eye(2), atol=1e-12)

    def test_filter(self, filter_instr):
        povm = ib.povm_of(filter_instr)
        np.testing.assert_allclose(
            povm.elements[0][1], np.diag([1 / 9, 1.0]), atol=1e-12
        )
        np.testing.assert_allclose(
            povm.elements[1][1], np.diag([8 / 9, 0.0]), atol=1e-12
        )

    def test_invalid_instrument_rejected(self):
        bad = ib.Instrument(2, 2, (ib.OutcomeMap("0", (2.0 * np.eye(2),)),))
        with pytest.raises(ib.InvalidInstrument):
            ib.povm_of(bad)


class TestProbabilities:
    def test_projective_on_mixed(self, projective):
        assert ib.outcome_probability(projective, "0", qstate([0.5, 0.5])) == pytest.approx(0.5)

    def test_filter_probability(self, filter_instr):
        p = ib.outcome_probability(filter_instr, "0", qstate([0.9, 0.1]))
        assert p == pytest.approx(0.2, abs=1e-12)

    def test_unknown_outcome(self, projective):
        with pytest.raises(ib.UnknownOutcome):
            ib.outcome_probability(projective, "zz", qstate([0.5, 0.5]))

    def test_dimension_mismatch(self, projective):
        with pytest.raises(ib.DimensionMismatch):
            ib.outcome_probability(projective, "0", qstate([0.5, 0.3, 0.2]))

    @given(st.integers(0, 10**6))
    def test_probabilities_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        instr = ib.random_instrument(seed, 3, 2, 3, 2)
        rho = random_state(rng, 3)
        total = sum(
            ib.outcome_probability(instr, label, rho) for label in instr.outcome_labels
        )
        assert total == pytest.approx(1.0, abs=1e-9)


class TestPosterior:
    def test_projective(self, projective):
        out = ib.posterior_state(projective, "0", qstate([0.5, 0.5]))
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_filter(self, filter_instr):
        out = ib.posterior_state(filter_instr, "0", qstate([0.9, 0.1]))
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-12)

    def test_single_outcome_unitary(self):
        rng = np.random.default_rng(1)
        u = ib.haar_isometry(rng, 2, 2)
        instr = ib.Instrument(2, 2, (ib.OutcomeMap("0", (u,)),))
        rho = random_state(rng, 2)
        out = ib.posterior_state(instr, "0", rho)
        np.testing.assert_allclose(out.matrix, u @ rho.matrix @ u.conj().T, atol=1e-12)

    def test_zero_probability(self):
        instr = ib.filter_family(1.0)
        with pytest.raises(ib.ZeroProbabilityOutcome):
            ib.posterior_state(instr, "1", qstate([0.0, 1.0]))


class TestThetaState:
    def test_projective_on_mixed(self, projective):
        theta = ib.theta_state(projective, qstate([0.5, 0.5]))
        assert theta.names == ("Qp", "X")
        expected = np.zeros((4, 4))
        expected[0, 0] = 0.5  # |0>_Qp |0>_X
        expected[3, 3] = 0.5  # |1>_Qp |1>_X
        np.testing.assert_allclose(theta.matrix, expected, atol=1e-14)

    def test_single_outcome_channel(self):
        rng = np.random.default_rng(2)
        u = ib.haar_isometry(rng, 2, 2)
        instr = ib.Instrument(2, 2, (ib.OutcomeMap("0", (u,)),))
        rho = random_state(rng, 2)
        theta = ib.theta_state(instr, rho)
        assert theta.dims == (2, 1)
        np.testing.assert_allclose(theta.matrix, u @ rho.matrix @ u.conj().T, atol=1e-12)

    def test_register_trace_matches_summation_oracle(self):
        rng = np.random.default_rng(3)
        instr = ib.random_instrument(3, 3, 2, 3, 2)
        rho = random_state(rng, 3)
        theta = ib.theta_state(instr, rho)
        # independent oracle: explicit outcome-by-outcome map summation
        total = np.zeros((2, 2), dtype=complex)
        for om in instr.outcomes:
            acc = np.zeros((2, 2), dtype=complex)
            for e in om.kraus:
                acc += e @ rho.matrix @ e.conj().T
            total += acc
        np.testing.assert_allclose(
            ib.partial_trace(theta, ["Qp"]).matrix, total, atol=1e-12
        )

    def test_register_blocks_exactly_zero(self):
        rng = np.random.default_rng(4)
        instr = ib.random_instrument(4, 2, 2, 3, 1)
        theta = ib.theta_state(instr, random_state(rng, 2))
        m = theta.matrix.reshape(2, 3, 2, 3)
        for x1 in range(3):
            for x2 in range(3):
                if x1 != x2:
                    assert np.all(m[:, x1, :, x2] == 0.0)


class TestPurify:
    def test_rank_one_is_product(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        rho = ib.LabeledState([ib.Subsystem("Q", 3)], np.outer(v, v.conj()))
        inp = ib.purify(rho)
        product = np.kron(np.array([1, 0, 0]), v)
        overlap = abs(np.vdot(product, inp.psi))
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed_qubit(self):
        inp = ib.purify(qstate([0.5, 0.5]))
        schmidt = np.linalg.svd(inp.psi_matrix, compute_uv=False)
        np.testing.assert_allclose(schmidt, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_two_level_coefficients(self):
        inp = ib.purify(qstate([0.9, 0.1]))
        schmidt = np.linalg.svd(inp.psi_matrix, compute_uv=False)
        np.testing.assert_allclose(schmidt, [np.sqrt(0.9), np.sqrt(0.1)], atol=1e-12)

    @given(st.integers(0, 10**6), st.integers(2, 6))
    def test_reduction_reproduces_state(self, seed, d):
        rng = np.random.default_rng(seed)
        rho = random_state(rng, d, rank=int(rng.integers(1, d + 1)))
        inp = ib.purify(rho)
        assert inp.r_dim == d
        mat = inp.psi_matrix
        np.testing.assert_allclose(mat.T @ mat.conj(), rho.matrix, atol=1e-9)

    def test_reduction_sweep_via_partial_trace(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            rho = random_state(rng, d)
            inp = ib.purify(rho)
            joint = ib.LabeledState(
                [ib.Subsystem("R", d), ib.Subsystem("Q", d)],
                np.outer(inp.psi, inp.psi.conj()),
                validate=False,
            )
            got = ib.partial_trace(joint, ["Q"])
            np.testing.assert_allclose(got.matrix, rho.matrix, atol=1e-9)


class TestRandomInstrument:
    def test_valid_by_construction(self):
        instr = ib.random_instrument(11, 2, 2, 2, 1)
        assert ib.validate(instr).passed
        assert instr.n_outcomes == 2 and instr.max_multiplicity == 1

    def test_deterministic(self):
        a = ib.random_instrument(123, 2, 3, 2, 2)
        b = ib.random_instrument(123, 2, 3, 2, 2)
        for oa, ob in zip(a.outcomes, b.outcomes):
            for ka, kb in zip(oa.kraus, ob.kraus):
                assert np.array_equal(ka, kb)

    @pytest.mark.parametrize("seed, d_in, d_out, n, mult", [
        (0, 2, 2, 2, 2), (3, 3, 2, 3, 2), (5, 4, 3, 2, 3), (9, 5, 1, 3, 2),
    ])
    def test_kraus_blocks_are_rows_of_the_isometry(self, seed, d_in, d_out, n, mult):
        # Kraus operator k of outcome m is row block m*mult + k of one isometry
        instr = ib.random_instrument(seed, d_in, d_out, n, mult)
        v = ib.haar_isometry(np.random.default_rng(seed), d_out * n * mult, d_in)
        assert np.array_equal(instr.kraus_stack.reshape(-1, d_in), v)
        assert instr.outcome_labels == tuple(str(m) for m in range(n))
        assert [om.multiplicity for om in instr.outcomes] == [mult] * n

    def test_dimension_too_small(self):
        with pytest.raises(ib.DimensionTooSmall):
            ib.random_instrument(0, 5, 2, 2, 1)

    @pytest.mark.parametrize(
        "sizes", [(0, 2, 2, 1), (2, 0, 2, 1), (2, 2, 0, 1), (2, 2, 2, 0), (-1, 2, 2, 1),
                  (2, -2, -1, 1)]
    )
    def test_nonpositive_size(self, sizes):
        with pytest.raises(ib.DimensionTooSmall):
            ib.random_instrument(0, *sizes)

    @pytest.mark.parametrize("sizes", [(2.0, 2, 2, 1), (2, 2.5, 2, 1), (2, 2, True, 1),
                                       (2, 2, 2, "1")])
    def test_non_integer_size(self, sizes):
        with pytest.raises(ib.DimensionTooSmall, match="must be integers"):
            ib.random_instrument(0, *sizes)

    def test_numpy_integer_sizes(self):
        a = ib.random_instrument(4, np.int64(2), 2, np.int32(2), 1)
        b = ib.random_instrument(4, 2, 2, 2, 1)
        assert a.kraus_stack.tobytes() == b.kraus_stack.tobytes()

    @given(st.integers(0, 10**6))
    def test_povm_of_random_is_valid(self, seed):
        rng = np.random.default_rng(seed)
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        mult = int(rng.integers(1, 4))
        if d_out * n * mult < d_in:
            mult = -(-d_in // (d_out * n))
        povm = ib.povm_of(ib.random_instrument(seed, d_in, d_out, n, mult))
        ib.check_povm(povm)


class TestCheckPovm:
    def test_negative_element_is_named(self):
        negative = np.diag([0.5, -0.1]).astype(complex)
        povm = ib.Povm(2, (("a", np.eye(2) - negative), ("b", negative)))
        with pytest.raises(ib.InvalidPovm, match=r"^element 'b' has eigenvalue -1\.000e-01$"):
            ib.check_povm(povm)

    def test_incomplete(self):
        povm = ib.Povm(2, (("a", 0.5 * np.eye(2)),))
        with pytest.raises(ib.InvalidPovm, match=r"completeness violated: .* = 5\.000e-01$"):
            ib.check_povm(povm)

    def test_stacked_povms_report_the_first_failure(self):
        negative = np.diag([0.5, -0.1])
        second_bad = np.stack([np.eye(2) - negative, negative])
        first_bad = np.stack([2 * negative, np.eye(2) - 2 * negative])
        with pytest.raises(ib.InvalidPovm, match=r"^element 'b' has eigenvalue -1\.000e-01$"):
            ib.objects._check_povm_stack(np.stack([second_bad, first_bad]), ("a", "b"))

    def test_non_finite_element_is_named(self):
        nan = np.eye(2) / 2
        nan[0, 0] = np.nan
        povm = ib.Povm(2, (("a", np.eye(2) / 2), ("b", nan)))
        with pytest.raises(ib.InvalidPovm, match=r"^non-finite entries: element 'b'$"):
            ib.check_povm(povm)

    @staticmethod
    def skewed(t):
        """Complete elements I/2 ± K whose Hermitian parts are I/2, with K
        antihermitian of largest entry t, so each max |P - P†| is 2t."""
        k = np.array([[0.0, t], [-t, 0.0]])
        return ib.Povm(2, (("a", np.eye(2) / 2 + k), ("b", np.eye(2) / 2 - k)))

    def test_non_hermitian_element_is_named(self):
        with pytest.raises(
            ib.InvalidPovm, match=r"^element 'a' is not Hermitian: max \|P - P†\| = 1\.000e\+01$"
        ):
            ib.check_povm(self.skewed(5.0))

    def test_hermiticity_decides_at_the_tolerance(self):
        ib.check_povm(self.skewed(0.49 * ib.objects.TP_ATOL))
        with pytest.raises(ib.InvalidPovm, match="^element 'a' is not Hermitian"):
            ib.check_povm(self.skewed(0.51 * ib.objects.TP_ATOL))

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 10),
        st.sampled_from([-1, 1]),
        # check_povm's tolerance, then that of the Holevo engine's deficit guard
        st.sampled_from([(ib.objects.TP_ATOL, 1e-6), (1e-12, 1e-2)]),
    )
    def test_screen_decides_as_the_eigenvalues_at_the_threshold(self, seed, d, side, tol):
        # element "a" has lowest eigenvalue -atol * (1 + side * margin), "b" completes it
        atol, margin = tol
        rng = np.random.default_rng(seed)
        u = ib.haar_isometry(rng, d, d)
        w = np.concatenate([[-atol * (1 + side * margin)], rng.uniform(0.0, 1.0, d - 1)])
        a = (u * w) @ u.conj().T
        stack = np.stack([a, np.eye(d) - a])
        low = np.linalg.eigvalsh(ib.tensors._hermitian(stack))[:, 0]
        assert (low.min() < -atol) == (side > 0)
        if side > 0:
            message = f"element 'a' has eigenvalue {low[0]:.3e}"
            with pytest.raises(ib.InvalidPovm, match=f"^{re.escape(message)}$"):
                ib.objects._check_povm_stack(stack, ("a", "b"), atol)
        else:
            ib.objects._check_povm_stack(stack, ("a", "b"), atol)

    def test_valid_povm_needs_no_eigensolve(self, monkeypatch):
        povm = ib.povm_of(ib.random_instrument(3, 4, 3, 3, 2))

        def eigvalsh(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        ib.check_povm(povm)


class TestUnitaryCompletion:
    def test_square_unitary_unchanged(self):
        u = ib.haar_isometry(np.random.default_rng(6), 3, 3)
        np.testing.assert_allclose(ib.unitary_completion(u), u, atol=1e-14)

    def test_single_column(self):
        v = np.array([[1.0], [0.0]], dtype=complex)
        u = ib.unitary_completion(v)
        np.testing.assert_allclose(u[:, :1], v, atol=1e-14)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-9)

    def test_random_isometry(self):
        v = ib.haar_isometry(np.random.default_rng(7), 8, 2)
        u = ib.unitary_completion(v)
        np.testing.assert_allclose(u[:, :2], v, atol=1e-14)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-9)

    def test_not_isometry(self):
        with pytest.raises(ib.NotIsometry):
            ib.unitary_completion(np.ones((3, 2)))
