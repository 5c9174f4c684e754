import json

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

    def test_nan_letter_state_is_rejected(self):
        enc = ib.Encoding(("0",), ib.Povm(2, (("0", np.eye(2)),)), (np.full((2, 2), np.nan),))
        with pytest.raises(ib.NumericalInconsistency, match="sum = nan, min = nan"):
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


def classical_mi_double_loop(p):
    """I(X:M) cell by cell, skipping cells at or below PROB_EPS."""
    p = np.clip(p, 0.0, None)
    px, pm = p.sum(axis=1), p.sum(axis=0)
    value = 0.0
    for xi in range(p.shape[0]):
        for mi in range(p.shape[1]):
            if p[xi, mi] > ib.objects.PROB_EPS:
                value += p[xi, mi] * np.log2(p[xi, mi] / (px[xi] * pm[mi]))
    return 0.0 if -1e-9 <= value < 0.0 else value


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

    def test_nan_cell(self):
        with pytest.raises(ib.BadDistribution):
            ib.classical_mutual_information(np.array([[np.nan, 0.5], [0.5, 0.0]]))

    def test_matches_double_loop(self):
        rng = np.random.default_rng(9)
        zero_cells = rng.random((3, 4))
        zero_cells[0, 1] = zero_cells[2, 3] = 0.0
        zero_cells[1, 2] = 1e-13 * zero_cells.sum()
        zero_row = rng.random((4, 3))
        zero_row[1] = 0.0
        for p in (zero_cells, zero_row, rng.random((1, 5)), rng.random((6, 7))):
            p = p / p.sum()
            assert ib.classical_mutual_information(p) == pytest.approx(
                classical_mi_double_loop(p), abs=1e-15
            )


def per_element_reference_povm(rng, dim):
    """The reference POVM draw written one element at a time."""
    k = dim + 1
    raws = []
    for _ in range(k):
        g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        g /= np.linalg.norm(g)
        raws.append(rng.uniform(0.2, 1.0) * np.outer(g, g.conj()))
    total = np.sum(raws, axis=0)
    top = float(np.linalg.eigvalsh((total + total.conj().T) / 2.0)[-1])
    scale = rng.uniform(0.2, 0.95) / top
    return [scale * raw for raw in raws] + [np.eye(dim) - scale * total]


class TestRandomReferencePovm:
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_always_valid(self, seed, d):
        povm = ib.random_reference_povm(np.random.default_rng(seed), d)
        ib.check_povm(povm)
        assert len(povm.elements) == d + 2

    def test_zero_dimension_is_named(self):
        with pytest.raises(ib.DimensionTooSmall, match="dim must be >= 1, got 0"):
            ib.random_reference_povm(np.random.default_rng(0), 0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_matches_per_element_draws(self, d):
        for seed in range(50):
            povm = ib.random_reference_povm(np.random.default_rng(seed), d)
            expected = per_element_reference_povm(np.random.default_rng(seed), d)
            assert povm.labels == tuple(str(i) for i in range(d + 2))
            for (_, element), ref in zip(povm.elements, expected):
                np.testing.assert_allclose(element, ref, rtol=0, atol=1e-15)


def expanded(c, v, deficit):
    """The dense stack (..., dim+2, dim, dim) of factored reference POVMs."""
    rank1 = c[..., None, None] * (v[..., :, None] * v.conj()[..., None, :])
    return np.concatenate([rank1, deficit[..., None, :, :]], axis=-3)


def trial_factors(seed, count, dim):
    """The stacked factors of trials 0 .. count-1 of ``seed``, as holevo_check draws them."""
    states = ib.encodings._child_states(np.random.SeedSequence(seed), 0, count)
    return ib.encodings._trial_factors(np.random.default_rng(0), states, dim)


def pcg64_state(seed_sequence):
    state = np.random.default_rng(seed_sequence).bit_generator.state
    assert state["has_uint32"] == 0 and state["uinteger"] == 0
    return state["state"]["state"], state["state"]["inc"]


class TestTrialSeeding:
    """The vectorized SeedSequence hash against numpy's own children."""

    @pytest.mark.parametrize(
        "seed", [0, 7, 2**31 - 1, 2**32, 2**64 + 1, 2**130 + 3, np.int64(5)],
        ids=["0", "7", "2^31-1", "2^32", "2^64+1", "2^130+3", "int64"],
    )
    def test_states_match_default_rng(self, seed):
        states = ib.encodings._child_states(np.random.SeedSequence(seed), 0, 40)
        children = np.random.SeedSequence(seed).spawn(40)
        assert states == [pcg64_state(child) for child in children]

    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 1, 2**130 + 3])
    @pytest.mark.parametrize("first", [2**32 - 2, 2**32 + 5, 2**40 + 3, 2**63])
    def test_two_word_spawn_keys(self, seed, first):
        # a key from 2**32 on is two entropy words; a block may straddle 2**32
        states = ib.encodings._child_states(np.random.SeedSequence(seed), first, 4)
        expected = [
            pcg64_state(np.random.SeedSequence(seed, spawn_key=(first + i,)))
            for i in range(4)
        ]
        assert states == expected

    @staticmethod
    def spawned_maximum(inp, instr, n_trials, seed):
        """max I(X:M) of the loop that drew each trial from default_rng(child)."""
        enc = ib.encodings
        best = 0.0
        for child in np.random.SeedSequence(seed).spawn(n_trials):
            draws = enc._reference_draws(np.random.default_rng(child), inp.r_dim)
            c, v, deficit = enc._reference_factors(*(np.array([x]) for x in draws))
            joint = enc._factored_joint(inp, c, v, deficit, instr.povm_elements)
            best = max(best, float(enc._classical_mi(joint).max()))
        return best

    @pytest.mark.parametrize("block_bytes", [None, 1, 5000])
    @pytest.mark.parametrize("d, rank", [(2, 2), (4, 2), (7, 7)])
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_maximum_matches_spawned_generators(self, monkeypatch, block_bytes, d, rank, seed):
        instr = ib.random_instrument(d + seed % 97, d, 3, 2, 2)
        inp = ib.purify(random_state(np.random.default_rng(d), d, rank))
        if block_bytes is not None:
            monkeypatch.setattr(ib.encodings, "_BLOCK_BYTES", block_bytes)
        report = ib.holevo_check(inp, instr, 37, seed)
        assert report.max_classical_mi.hex() == self.spawned_maximum(inp, instr, 37, seed).hex()

    @pytest.mark.parametrize("block_bytes", [None, 1, 5000])
    @pytest.mark.parametrize(
        "d, rank", [(1, 1), (10, 10), (10, 5)], ids=["d1", "d10-full", "d10-half"]
    )
    def test_maximum_matches_spawned_generators_at_two_outcomes(
        self, monkeypatch, block_bytes, d, rank
    ):
        # two outcomes of multiplicity 1, as the `holevo d=10` stratum of the
        # benchmark; 80 trials are blocks of 76 + 4 at d=10 and 78 + 2 at d=1
        # with 5000 bytes, so each product runs with several row counts
        instr = ib.random_instrument(d + 11, d, d, 2, 1)
        inp = ib.purify(random_state(np.random.default_rng(d + rank), d, rank))
        if block_bytes is not None:
            monkeypatch.setattr(ib.encodings, "_BLOCK_BYTES", block_bytes)
        report = ib.holevo_check(inp, instr, 80, 12)
        assert report.max_classical_mi.hex() == self.spawned_maximum(inp, instr, 80, 12).hex()

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_draw_block_matches_one_trial_draws(self, d):
        calls = {"standard_normal": 0, "random": 0}

        class CountedGenerator(np.random.Generator):
            def standard_normal(self, *args, **kwargs):
                calls["standard_normal"] += 1
                return super().standard_normal(*args, **kwargs)

            def random(self, *args, **kwargs):
                calls["random"] += 1
                return super().random(*args, **kwargs)

        root = np.random.SeedSequence(21)
        states = ib.encodings._child_states(root, 0, 9)
        block = ib.encodings._trial_factors(CountedGenerator(np.random.PCG64()), states, d)
        assert calls == {"standard_normal": 9 * (d + 1), "random": 9 * (d + 2)}
        draws = [
            ib.encodings._reference_draws(np.random.default_rng(child), d)
            for child in root.spawn(9)
        ]
        stacked = ib.encodings._reference_factors(*(np.array(column) for column in zip(*draws)))
        for got, want in zip(block, stacked):
            assert got.tobytes() == want.tobytes()

    def test_call_budget(self, monkeypatch):
        # one generator per call and no SeedSequence children, whatever the trial count
        counts = {"default_rng": 0, "PCG64": 0, "spawn": 0, "children": 0}

        class CountedSeedSequence(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                counts["children"] += bool(self.spawn_key)

            def spawn(self, n_children):
                counts["spawn"] += 1
                return super().spawn(n_children)

        def counted(name, real):
            def call(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(np.random, "SeedSequence", CountedSeedSequence)
        for name in ("default_rng", "PCG64"):
            monkeypatch.setattr(np.random, name, counted(name, getattr(np.random, name)))
        inp = ib.purify(random_state(np.random.default_rng(3), 3))
        instr = ib.random_instrument(3, 3, 3, 2, 2)
        counts["default_rng"] = 0
        ib.holevo_check(inp, instr, 100, 9)
        assert counts["default_rng"] + counts["PCG64"] <= 1, counts
        assert counts["spawn"] == 0 and counts["children"] == 0, counts


class TestFactoredEngine:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.integers(1, 5),
        st.integers(1, 6),
        st.integers(1, 3),
    )
    def test_joint_tables_match_the_dense_oracle(self, seed, d_in, shift, rank, n):
        d_out = (d_in + shift - 1) % 6 + 1
        mult = -(-d_in // (d_out * n))
        instr = ib.random_instrument(seed, d_in, d_out, n, mult)
        rho = random_state(np.random.default_rng(seed), d_in, min(rank, d_in))
        inp = ib.purify(rho)
        children = np.random.SeedSequence(seed).spawn(5)
        c, v, deficit = trial_factors(seed, 5, inp.r_dim)
        labels = tuple(str(i) for i in range(inp.r_dim + 2))
        ib.objects._check_factored_povm(c, v, deficit, ib.objects._lowest_eigenvalues(deficit, ib.objects.TP_ATOL), labels)
        tables = ib.encodings._factored_joint(inp, c, v, deficit, instr.povm_elements)
        for child, table in zip(children, tables):
            povm = ib.random_reference_povm(np.random.default_rng(child), inp.r_dim)
            dense = ib.joint_distribution(ib.ensemble_from_reference_povm(inp, povm), instr)
            np.testing.assert_allclose(table, dense, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "factor, index, value, message",
        [
            (0, (1, 2), -0.25, r"^element '2' has eigenvalue -2\.500e-01$"),
            (1, (0, 3, 1), np.nan, r"^non-finite entries: element '3'$"),
            (2, (1, 0, 0), -5.0, r"^element '4' has eigenvalue -\d\.\d{3}e\+00$"),
            (0, (0, 0), 2.0, r"^completeness violated: max \|sum P - 1\| = "),
        ],
        ids=["negative-weight", "nan-vector", "deficit-not-psd", "incomplete"],
    )
    def test_injected_fault_is_reported_as_by_the_dense_check(
        self, factor, index, value, message
    ):
        # two trials at dim 3: elements '0'-'3' are rank 1, '4' is the deficit
        factors = trial_factors(4, 2, 3)
        factors[factor][index] = value
        labels = tuple(str(i) for i in range(5))
        with pytest.raises(ib.InvalidPovm, match=message) as dense:
            ib.objects._check_povm_stack(expanded(*factors), labels)
        with pytest.raises(ib.InvalidPovm, match=message) as factored:
            ib.objects._check_factored_povm(*factors, ib.objects._lowest_eigenvalues(factors[2], ib.objects.TP_ATOL), labels)
        assert str(factored.value) == str(dense.value)


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

    def test_scores_without_the_dense_engine(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("dense engine called")

        monkeypatch.setattr(ib.encodings, "_letter_parts", dense)
        monkeypatch.setattr(ib.objects, "_check_povm_stack", dense)
        instr = ib.random_instrument(21, 5, 4, 3, 2)
        report = ib.holevo_check(ib.purify(qstate([0.4, 0.3, 0.2, 0.1, 0.0])), instr, 29, 3)
        assert report.max_classical_mi == pytest.approx(0.060494748960245565, abs=1e-12)

    @pytest.mark.parametrize(
        "n_trials, rng_seed, name",
        [(-1, 1, "n_trials"), (True, 1, "n_trials"), (2.0, 1, "n_trials"),
         (5, -1, "rng_seed"), (5, False, "rng_seed")],
    )
    def test_bad_arguments_are_named(self, n_trials, rng_seed, name):
        with pytest.raises(ib.ParseError, match=f"^{name} must be a nonnegative integer"):
            ib.holevo_check(ib.purify(qstate([0.5, 0.5])), ib.projective(), n_trials, rng_seed)

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
        for trials in (5, 50):
            ib.holevo_check(inp, instr, trials, 1)
        assert calls == [instr]

    @pytest.mark.parametrize("d", [2, 10, 13])
    def test_block_size_does_not_change_report(self, monkeypatch, d):
        instr = ib.random_instrument(d, d, 4, 2, 2)
        inp = ib.purify(random_state(np.random.default_rng(d), d))
        blocked = ib.holevo_check(inp, instr, 29, 5)
        monkeypatch.setattr(ib.encodings, "_BLOCK_BYTES", 1)
        one_by_one = ib.holevo_check(inp, instr, 29, 5)
        assert one_by_one.to_dict() == blocked.to_dict()

    @pytest.mark.parametrize("block_bytes, blocks", [(None, 1), (1, 29)])
    def test_one_cholesky_per_block(self, monkeypatch, block_bytes, blocks):
        # the deficit screen of the POVM draw also serves the POVM check
        instr = ib.random_instrument(6, 3, 3, 2, 2)
        inp = ib.purify(random_state(np.random.default_rng(6), 3))
        if block_bytes is not None:
            monkeypatch.setattr(ib.encodings, "_BLOCK_BYTES", block_bytes)
        calls = []
        real = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or real(a))
        ib.holevo_check(inp, instr, 29, 5)
        assert len(calls) == blocks

    def test_numpy_integer_arguments_give_a_json_report(self):
        report = ib.holevo_check(
            ib.purify(qstate([0.5, 0.5])), ib.projective(), np.int64(10), np.int64(3)
        )
        assert type(report.n_trials) is int and type(report.seed) is int
        doc = json.loads(json.dumps(report.to_dict()))
        assert (doc["n_trials"], doc["seed"]) == (10, 3)

    # max_classical_mi of the loop that built and scored one trial at a time
    @pytest.mark.parametrize(
        "instr, diag, seed, trials, recorded",
        [
            (lambda: ib.random_instrument(8, 2, 3, 3, 2), [0.6, 0.4], 7, 37,
             0.12859304418821),
            (lambda: ib.random_instrument(21, 5, 4, 3, 2), [0.4, 0.3, 0.2, 0.1, 0.0], 3,
             29, 0.060494748960245565),
            (lambda: ib.filter_family(2.0 / 3.0), [0.5, 0.5], 11, 50,
             0.26242174329833656),
        ],
        ids=["random-d2", "random-d5-rank4", "filter"],
    )
    def test_recorded_maximum(self, instr, diag, seed, trials, recorded):
        report = ib.holevo_check(ib.purify(qstate(diag)), instr(), trials, seed)
        assert report.max_classical_mi == pytest.approx(recorded, abs=1e-12)

    @given(st.integers(0, 10**6))
    def test_bound_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_state(rng, 2)
        instr = ib.random_instrument(seed, 2, 2, 2, int(rng.integers(1, 3)))
        report = ib.holevo_check(ib.purify(rho), instr, 10, seed)
        assert report.max_classical_mi <= report.iota + 1e-9
