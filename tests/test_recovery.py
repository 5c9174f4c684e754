import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infobalance as ib
from infobalance.objects import PROB_EPS
from conftest import (
    haar_unitary,
    perturbed_reversible,
    qstate,
    random_state,
)


def unitary_instrument(seed=0, d=2):
    u = haar_unitary(np.random.default_rng(seed), d)
    return ib.Instrument(d, d, (ib.OutcomeMap("0", (u,)),)), u


def apply_channel(kraus, sigma):
    out = np.zeros_like(np.asarray(sigma, dtype=complex))
    for k in kraus:
        out += k @ sigma @ k.conj().T
    return out


def channel_tp_deviation(kraus):
    d = kraus[0].shape[1]
    total = sum(k.conj().T @ k for k in kraus)
    return float(np.max(np.abs(total - np.eye(d))))


def fidelity_sandwich_oracle(psi_matrix, kraus):
    """Literal <Psi|(id ⊗ channel)(Psi)|Psi> via the output density matrix."""
    d_r, d = psi_matrix.shape
    psi = psi_matrix.reshape(-1)
    rho_out = np.zeros((d_r * d, d_r * d), dtype=complex)
    for k in kraus:
        vec = (psi_matrix @ np.asarray(k, dtype=complex).T).reshape(-1)
        rho_out += np.outer(vec, vec.conj())
    return float(np.real(np.vdot(psi, rho_out @ psi)))


class TestPetzRecovery:
    def test_unitary_inverts(self):
        instr, u = unitary_instrument(seed=1)
        rho = random_state(np.random.default_rng(1), 2)  # full rank
        kraus = ib.petz_recovery(instr, rho, "0")
        assert len(kraus) == 1  # empty kernel, no completion branch
        np.testing.assert_allclose(kraus[0], u.conj().T, atol=1e-9)

    def test_projective_closed_form(self):
        rho = qstate([0.5, 0.5])
        kraus = ib.petz_recovery(ib.projective(), rho, "0")
        # on the support: R_0(sigma) = <0|sigma|0> |0><0|; the kernel branch
        # re-prepares rho from |1><1|
        sigma = np.array([[0.3, 0.1], [0.1, 0.7]], dtype=complex)
        out = apply_channel(kraus, sigma)
        expected = sigma[0, 0] * np.diag([1.0, 0.0]) + sigma[1, 1] * np.eye(2) / 2
        np.testing.assert_allclose(out, expected, atol=1e-9)
        assert channel_tp_deviation(kraus) <= 1e-8

    def test_random_single_kraus_trace_preserving(self):
        rng = np.random.default_rng(2)
        instr = ib.random_instrument(2, 3, 3, 2, 1)
        rho = random_state(rng, 3)
        for label in instr.outcome_labels:
            kraus = ib.petz_recovery(instr, rho, label)
            assert channel_tp_deviation(kraus) <= 1e-8

    def test_zero_probability_rejected(self):
        with pytest.raises(ib.ZeroProbabilityOutcome):
            ib.petz_recovery(ib.filter_family(1.0), qstate([0.0, 1.0]), "1")


class TestEntanglementFidelity:
    def test_identity_channel(self):
        rho = random_state(np.random.default_rng(3), 3)
        assert ib.entanglement_fidelity(rho, (np.eye(3),)) == pytest.approx(1.0, abs=1e-12)

    def test_fully_depolarizing(self):
        kraus = tuple(
            np.outer(np.eye(2)[:, i], np.eye(2)[:, j]) / np.sqrt(2)
            for i in range(2)
            for j in range(2)
        )
        assert ib.entanglement_fidelity(qstate([0.5, 0.5]), kraus) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_dephasing(self):
        kraus = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
        assert ib.entanglement_fidelity(qstate([0.5, 0.5]), kraus) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_purification_independent(self):
        rng = np.random.default_rng(4)
        rho = random_state(rng, 3)
        kraus = tuple(
            ib.random_instrument(4, 3, 3, 2, 1).outcomes[0].kraus
            + ib.random_instrument(4, 3, 3, 2, 1).outcomes[1].kraus
        )
        base = ib.entanglement_fidelity(rho, kraus)
        psi = ib.purify(rho).psi_matrix
        for _ in range(5):
            u = haar_unitary(rng, 3)
            rotated = u @ psi  # different purifying basis on R
            assert fidelity_sandwich_oracle(rotated, kraus) == pytest.approx(
                base, abs=1e-10
            )

    def test_matches_sandwich_oracle(self):
        rng = np.random.default_rng(5)
        rho = random_state(rng, 2)
        instr = ib.random_instrument(5, 2, 2, 2, 2)
        kraus = tuple(k for om in instr.outcomes for k in om.kraus)
        expected = fidelity_sandwich_oracle(ib.purify(rho).psi_matrix, kraus)
        assert ib.entanglement_fidelity(rho, kraus) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ib.DimensionMismatch):
            ib.entanglement_fidelity(qstate([0.5, 0.5]), (np.eye(3),))


class TestCorrectedFidelity:
    def test_unitary_perfectly_recovered(self):
        instr, _ = unitary_instrument(seed=6)
        rho = random_state(np.random.default_rng(6), 2)
        family = ib.petz_family(instr, rho)
        assert ib.corrected_fidelity(instr, rho, family) == pytest.approx(1.0, abs=1e-9)
        assert ib.disturbance(instr, rho) <= 1e-9

    def test_projective_becomes_dephasing(self):
        rho = qstate([0.5, 0.5])
        family = ib.petz_family(ib.projective(), rho)
        assert ib.corrected_fidelity(ib.projective(), rho, family) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_composite_is_trace_preserving(self):
        rng = np.random.default_rng(7)
        instr = ib.random_instrument(7, 2, 3, 2, 2)
        rho = random_state(rng, 2)
        family = ib.petz_family(instr, rho)
        composite = [
            np.asarray(r) @ e
            for om in instr.outcomes
            for r in family.channel(om.label)
            for e in om.kraus
        ]
        assert channel_tp_deviation(composite) <= 1e-8

    def test_missing_outcome(self):
        rho = qstate([0.5, 0.5])
        family = ib.petz_family(ib.projective(), rho)
        partial = ib.RecoveryFamily(family.outcome_labels[:1], family.channels[:1])
        with pytest.raises(ib.MissingOutcome):
            ib.corrected_fidelity(ib.projective(), rho, partial)

    def test_zero_probability_outcome_coverable(self):
        instr = ib.filter_family(1.0)
        rho = qstate([0.0, 1.0])
        family = ib.petz_family(instr, rho)
        fid = ib.corrected_fidelity(instr, rho, family)
        assert fid == pytest.approx(1.0, abs=1e-9)  # filter at t=1 acts as identity here


class TestTheoremBounds:
    @given(st.integers(0, 10**6))
    def test_small_disturbance_recovers(self, seed):
        rng = np.random.default_rng(seed)
        target = 10 ** rng.uniform(-5.5, -2.5)
        instr, rho, eps = perturbed_reversible(
            rng, int(rng.integers(2, 4)), 2, target, second_kraus=bool(rng.integers(2))
        )
        family = ib.petz_family(instr, rho)
        fid = ib.corrected_fidelity(instr, rho, family)
        assert fid >= 1.0 - 4.0 * np.sqrt(eps)

    def test_perturbed_not_exactly_recoverable(self):
        rng = np.random.default_rng(8)
        instr, rho, eps = perturbed_reversible(rng, 2, 2, 1e-3)
        assert eps >= 1e-6
        fid = ib.corrected_fidelity(instr, rho, ib.petz_family(instr, rho))
        assert fid <= 1.0 - 1e-9  # exact reversal iff disturbance ~ 0


class TestFanoBound:
    def test_perfect_recovery(self):
        instr, _ = unitary_instrument(seed=9)
        rho = random_state(np.random.default_rng(9), 2)
        check = ib.fano_bound_check(instr, rho, ib.petz_family(instr, rho))
        assert check.holds
        assert check.bound == pytest.approx(0.0, abs=1e-6)
        assert check.delta == pytest.approx(0.0, abs=1e-9)

    def test_projective_values(self):
        rho = qstate([0.5, 0.5])
        check = ib.fano_bound_check(ib.projective(), rho, ib.petz_family(ib.projective(), rho))
        assert check.delta == pytest.approx(1.0, abs=1e-9)
        assert check.fidelity == pytest.approx(0.5, abs=1e-9)
        # f(1/2) = 2*[h2(1/2) + (1/2) log2(3)]
        assert check.bound == pytest.approx(2.0 * (1.0 + 0.5 * np.log2(3.0)), abs=1e-9)
        assert check.holds

    @given(st.integers(0, 10**6))
    def test_holds_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        instr = ib.random_instrument(seed, d, d, 2, int(rng.integers(1, 3)))
        rho = random_state(rng, d)
        check = ib.fano_bound_check(instr, rho, ib.petz_family(instr, rho))
        assert check.holds

    @pytest.mark.parametrize("delta, fidelity, expected", [
        (0.0625, 0.5 - 5e-10, (0.5, 0.0, True, True)),
        (0.0625, 0.5 - 2e-9, (0.5, 0.0, False, True)),
        (0.0625, -5e-10, (0.5, 0.0, False, True)),
        (0.0625, -2e-9, (0.5, 0.0, False, False)),
        (-1e-12, 1.0, (1.0, 1.0, True, True)),
    ])
    def test_correction_thresholds(self, delta, fidelity, expected):
        assert ib.correction_thresholds(delta, fidelity) == expected

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_delta_is_a_domain_error(self, delta):
        rho = qstate([0.5, 0.5])
        family = ib.petz_family(ib.projective(), rho)
        with pytest.raises(ib.BadDistribution, match=rf"^disturbance {delta!r} is not finite$"):
            ib.fano_bound_check(ib.projective(), rho, family, delta=delta)


def composite_kraus(instr, family):
    """Explicit Kraus list of sum_m R_m ∘ E_m over the outcomes the family covers."""
    return tuple(
        np.asarray(r, dtype=complex) @ e
        for om in instr.outcomes
        if om.label in family.outcome_labels
        for r in family.channel(om.label)
        for e in om.kraus
    )


def random_pair(rng):
    d = int(rng.integers(2, 6))
    n, mult = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    d_out = max(int(rng.integers(1, 5)), -(-d // (n * mult)))
    instr = ib.random_instrument(int(rng.integers(1 << 30)), d, d_out, n, mult)
    return instr, random_state(rng, d, rank=int(rng.integers(1, d + 1)))


class TestCorrectedFidelityReference:
    """corrected_fidelity against entanglement_fidelity of the composite list."""

    def assert_matches(self, instr, rho, family):
        expected = ib.entanglement_fidelity(rho, composite_kraus(instr, family))
        assert abs(ib.corrected_fidelity(instr, rho, family) - expected) <= 1e-12

    @given(st.integers(0, 10**6))
    def test_random_pairs(self, seed):
        instr, rho = random_pair(np.random.default_rng(seed))
        self.assert_matches(instr, rho, ib.petz_family(instr, rho))

    def test_rank_deficient_state(self):
        rng = np.random.default_rng(10)
        instr = ib.random_instrument(10, 4, 3, 2, 2)
        rho = random_state(rng, 4, rank=2)
        self.assert_matches(instr, rho, ib.petz_family(instr, rho))

    def test_zero_probability_outcome(self):
        instr, rho = ib.filter_family(1.0), qstate([0.0, 1.0])
        self.assert_matches(instr, rho, ib.petz_family(instr, rho))

    def test_mixed_multiplicities(self):
        rng = np.random.default_rng(11)
        blocks = np.split(ib.haar_isometry(rng, 3 * 6, 3), 6)
        instr = ib.Instrument(3, 3, (
            ib.OutcomeMap("a", tuple(blocks[:1])),
            ib.OutcomeMap("b", tuple(blocks[1:3])),
            ib.OutcomeMap("c", tuple(blocks[3:])),
        ))
        rho = random_state(rng, 3, rank=2)
        self.assert_matches(instr, rho, ib.petz_family(instr, rho))

    def test_loaded_non_petz_family(self):
        rng = np.random.default_rng(12)
        instr = ib.random_instrument(12, 3, 2, 2, 2)
        # each outcome's "recovery" is an arbitrary channel from C^2 to C^3
        channels = tuple(ib.random_instrument(20 + m, 2, 3, 1, 2).outcomes[0].kraus
                         for m in range(2))
        family = ib.RecoveryFamily(instr.outcome_labels, channels)
        self.assert_matches(instr, random_state(rng, 3), family)

    def test_family_for_another_output_dimension(self):
        rng = np.random.default_rng(13)
        instr = ib.random_instrument(13, 3, 2, 2, 1)
        rho = random_state(rng, 3)
        other = ib.petz_family(ib.random_instrument(13, 3, 3, 2, 1), rho)
        with pytest.raises(ib.DimensionMismatch, match=r"\(3, 3\)"):
            ib.corrected_fidelity(instr, rho, other)


class TestOnePassPerCall:
    @given(st.integers(0, 10**6))
    def test_petz_recovery_is_the_family_channel(self, seed):
        instr, rho = random_pair(np.random.default_rng(seed))
        family = ib.petz_family(instr, rho)
        for om in instr.outcomes:
            if ib.outcome_probability(instr, om.label, rho) > PROB_EPS:
                one = ib.petz_recovery(instr, rho, om.label)
                assert len(one) == len(family.channel(om.label))
                for a, b in zip(one, family.channel(om.label)):
                    np.testing.assert_array_equal(a, b)

    @staticmethod
    def count_eigensolves(monkeypatch, names=("eigh", "eigvalsh")):
        calls = []
        for name in names:
            def counted(*args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append(_name)
                return _solve(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    @pytest.mark.parametrize(
        "instr, d",
        [(ib.random_instrument(1, 3, 3, 3, 2), 3), (ib.projective(), 2)],
        ids=["random", "projective"],
    )
    def test_petz_family_decomposes_each_matrix_once(self, monkeypatch, instr, d):
        rho = qstate(np.ones(d) / d)
        calls = self.count_eigensolves(monkeypatch)
        ib.petz_family(instr, rho)
        # n for validation, one for rho, one per posterior
        assert len(calls) <= 2 * instr.n_outcomes + 1

    def test_standalone_petz_family_makes_no_svd(self, monkeypatch):
        instr = ib.random_instrument(2, 3, 3, 3, 2)
        rho = random_state(np.random.default_rng(13), 3, rank=2)
        ib.require_valid(instr)
        calls = self.count_eigensolves(monkeypatch, ("eigh", "eigvalsh", "svd"))
        ib.petz_family(instr, rho)
        # one eigh of rho, one stacked eigh of the posteriors; no purification
        assert calls == ["eigh", "eigh"]

    def assert_corrected_fidelity_only_validates(self, monkeypatch, cold):
        instr = ib.random_instrument(1, 3, 3, 3, 2)
        rho = random_state(np.random.default_rng(14), 3)
        family = ib.petz_family(instr, rho)
        if cold:  # the engine keeps no analysis of this pair
            ib.measures._analysis.cache_clear()
        calls = self.count_eigensolves(monkeypatch)
        # every binding of the purification; the engine builds its own from
        # an eigh of rho, which the count above sees
        monkeypatch.setattr(ib.objects, "purify", None)
        ib.corrected_fidelity(instr, rho, family)
        # petz_family validated the instrument, so nothing is decomposed
        assert calls == []

    def test_corrected_fidelity_only_validates(self, monkeypatch):
        self.assert_corrected_fidelity_only_validates(monkeypatch, cold=False)

    def test_corrected_fidelity_on_an_unseen_pair_only_validates(self, monkeypatch):
        self.assert_corrected_fidelity_only_validates(monkeypatch, cold=True)

    @pytest.mark.parametrize("given_delta", [True, False], ids=["delta", "no-delta"])
    def test_fano_bound_check_validates_once(self, monkeypatch, given_delta):
        instr = ib.random_instrument(1, 3, 3, 3, 2)
        rho = random_state(np.random.default_rng(15), 3)
        calls = []
        real = ib.objects.validate
        monkeypatch.setattr(ib.objects, "validate", lambda i: calls.append(i) or real(i))
        family = ib.petz_family(instr, rho)
        delta = ib.disturbance(instr, rho) if given_delta else None
        ib.fano_bound_check(instr, rho, family, delta=delta)
        assert calls == [instr]


class TestRecoveryFamilyInvariants:
    """A family checks itself when built; each error names the channel."""

    @staticmethod
    def channel():
        return (np.eye(2, dtype=complex),)

    @pytest.mark.parametrize("labels, n_channels, index", [
        (("0", "1"), 1, 1), (("0",), 2, 1), (("0", "1", "2"), 0, 0),
    ])
    def test_lengths_agree(self, labels, n_channels, index):
        message = rf"^channels\[{index}\]: {len(labels)} labels and {n_channels} channels$"
        with pytest.raises(ib.DimensionMismatch, match=message):
            ib.RecoveryFamily(labels, (self.channel(),) * n_channels)

    def test_labels_are_distinct(self):
        with pytest.raises(ib.DuplicateLabel, match=r"^channels\[2\]: outcome '0'"):
            ib.RecoveryFamily(("0", "1", "0"), (self.channel(),) * 3)

    def test_no_channel_is_empty(self):
        with pytest.raises(ib.InvalidInstrument, match=r"^channels\[1\]: outcome '1'"):
            ib.RecoveryFamily(("0", "1"), (self.channel(), ()))


class TestMalformedChannels:
    @pytest.mark.parametrize("channel", [
        ([[1.0, 0.0], [0.0]],),  # a ragged matrix
        (np.eye(2), np.eye(2)[:1]),  # matrices of two shapes
        (np.array([["1", "0"], ["0", "x"]]),),  # not numbers
    ], ids=["ragged", "two-shapes", "strings"])
    def test_named_as_a_dimension_mismatch(self, channel):
        rho = qstate([0.5, 0.5])
        family = ib.petz_family(ib.projective(), rho)
        bad = ib.RecoveryFamily(family.outcome_labels, (family.channels[0], channel))
        with pytest.raises(ib.DimensionMismatch, match="outcome '1'"):
            ib.corrected_fidelity(ib.projective(), rho, bad)

    @pytest.mark.parametrize("channel, index", [
        (([[1.0, None], [0.0, 1.0]],), 0),  # numpy reads None as NaN
        ((np.array([[np.nan, 0.0], [0.0, 1.0]]),), 0),
        ((np.eye(2), np.array([[1.0, 0.0], [0.0, np.inf]])), 1),
    ], ids=["none", "nan", "inf"])
    @pytest.mark.parametrize("check", [ib.corrected_fidelity, ib.fano_bound_check])
    def test_non_finite_entries_are_named(self, channel, index, check):
        instr, rho = ib.projective(), qstate([0.5, 0.5])
        family = ib.petz_family(instr, rho)
        bad = ib.RecoveryFamily(family.outcome_labels, (family.channels[0], channel))
        with pytest.raises(ib.InvalidInstrument,
                           match=rf"^non-finite entries: outcome '1' Kraus {index}$"):
            check(instr, rho, bad)


EPS = np.finfo(float).eps


def on_support(w, v, f, cut):
    fw = np.zeros_like(w)
    mask = w > cut
    fw[mask] = f(w[mask])
    return (v * fw[..., None, :]) @ v.conj().swapaxes(-1, -2)


def rho_cut(w):
    """numpy's ``matrix_rank`` bound d·eps·w_max on rho's ascending eigenvalues."""
    return len(w) * EPS * w[-1]


def posterior_cuts(w):
    """Per posterior of ascending eigenvalues ``w`` ``(B, d_out)``, the eigenvalue
    at or below which its kernel lies: d_out·eps·lambda_max/TP_ATOL, ``(B, 1)``."""
    return w.shape[1] * EPS * w[:, -1:] / ib.objects.TP_ATOL


def outcome_wise_channels(instr, rho):
    """The transpose channels built outcome by outcome, as before the stacked
    construction: ``OutcomeMap.apply`` for each posterior, one product per
    Kraus operator and one ``np.outer`` per re-preparation operator; None
    where p_m ~ 0.  Also the re-preparation channel of such an outcome.
    sqrt(rho) and the re-preparation keep rho's eigenvalues above
    :func:`rho_cut`; each posterior's kernel lies at or below its
    :func:`posterior_cuts` entry."""
    w, v = np.linalg.eigh(rho.matrix)
    cut = rho_cut(w)
    sqrt_rho, roots, vectors = on_support(w, v, np.sqrt, cut), np.sqrt(w[w > cut]), v[:, w > cut]

    def reprepare(onto):
        return [s * np.outer(u, k.conj()) for s, u in zip(roots, vectors.T) for k in onto.T]

    sigmas = [om.apply(rho.matrix) for om in instr.outcomes]
    live = [i for i, sigma in enumerate(sigmas) if float(np.trace(sigma).real) > PROB_EPS]
    stack = np.stack([sigmas[i] for i in live])
    w, v = np.linalg.eigh((stack + stack.conj().swapaxes(1, 2)) / 2.0)
    cuts = posterior_cuts(w)
    inv_sqrt = on_support(w, v, lambda x: x ** -0.5, cuts)
    channels = [None] * instr.n_outcomes
    for j, i in enumerate(live):
        recovery = [sqrt_rho @ e.conj().T @ inv_sqrt[j] for e in instr.outcomes[i].kraus]
        channels[i] = tuple(recovery + reprepare(v[j][:, w[j] <= cuts[j]]))
    return channels, tuple(reprepare(np.eye(instr.d_out))), sigmas


def outcome_wise_fidelity(instr, rho, family):
    total = 0.0
    for om in instr.outcomes:
        if om.label not in family.outcome_labels:
            continue
        recovery = [np.asarray(r, dtype=complex) for r in family.channel(om.label)]
        e_rho_t = np.array([e @ rho.matrix for e in om.kraus]).transpose(0, 2, 1)
        e_rho_t = e_rho_t.reshape(om.multiplicity, -1)
        amps = np.reshape(recovery, (-1, e_rho_t.shape[1])) @ e_rho_t.T
        total += float(np.sum(np.abs(amps) ** 2))
    return total


#: log10 ranges of one small eigenvalue of rho: one puts it between rho's
#: support bound and 1e-10, where sqrt(rho) and the re-preparation keep it, and
#: one puts posterior eigenvalues above 1e-10 but at or below their kernel's cut
FLOOR_BANDS = {"posterior": (-9.5, -8.0), "rho": (-14.5, -10.0), "none": None}


@st.composite
def recovery_pairs(draw):
    """d_in and d_out up to 6 drawn apart, mixed multiplicities, states of any
    rank, with one eigenvalue of a state of rank 2 or more drawn from a band
    of ``FLOOR_BANDS``; with ``dead`` outcomes the instrument acts on the
    state's support and its complement apart, so those outcomes have
    probability zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    band = FLOOR_BANDS[draw(st.sampled_from(list(FLOOR_BANDS)))]
    d_in, d_out = draw(st.integers(2, 6)), draw(st.integers(1, 6))
    rank = draw(st.integers(1 if band is None else 2, d_in))
    mults = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    dead = draw(st.lists(st.integers(1, 3), max_size=2)) if rank < d_in else []
    u = haar_unitary(rng, d_in)
    w = rng.dirichlet(np.ones(rank))
    if band is not None:
        w[0] = 10.0 ** rng.uniform(*band)
        w /= w.sum()
    rho = u[:, :rank] @ np.diag(w) @ u[:, :rank].conj().T
    parts = [(mults, u[:, :rank] if dead else u), (dead, u[:, rank:])]
    outcomes = []
    for ks, basis in parts:
        if not ks:
            continue
        while d_out * sum(ks) < basis.shape[1]:
            ks = ks + [1]
        blocks = iter(np.split(ib.haar_isometry(rng, d_out * sum(ks), basis.shape[1]), sum(ks)))
        outcomes += [tuple(next(blocks) @ basis.conj().T for _ in range(k)) for k in ks]
    order = rng.permutation(len(outcomes))
    instr = ib.Instrument(d_in, d_out, tuple(
        ib.OutcomeMap(f"m{i}", outcomes[i]) for i in order))
    return instr, qstate(rho)


class TestOutcomeWiseOracle:
    """The stacked Petz construction against the outcome-wise one, bit for bit."""

    @given(recovery_pairs())
    def test_kraus_operators_and_fidelity(self, pair):
        instr, rho = pair
        channels, spare, sigmas = outcome_wise_channels(instr, rho)
        family = ib.petz_family(instr, rho)
        for om, got, want in zip(instr.outcomes, family.channels, channels):
            expected = spare if want is None else want
            assert [k.tobytes() for k in got] == [k.tobytes() for k in expected], om.label
            assert all(k.shape == (instr.d_in, instr.d_out) for k in got)
            if want is None:
                p = float(np.trace(sigmas[instr.outcome_index(om.label)]).real)
                message = re.escape(f"probability {p:.3e}") + "$"  # 0.000e+00 holds a '+'
                with pytest.raises(ib.ZeroProbabilityOutcome, match=message):
                    ib.petz_recovery(instr, rho, om.label)
            else:
                one = ib.petz_recovery(instr, rho, om.label)
                assert [k.tobytes() for k in one] == [k.tobytes() for k in want]
        got = ib.corrected_fidelity(instr, rho, family)
        assert got.hex() == outcome_wise_fidelity(instr, rho, family).hex()

    def test_the_draws_reach_every_branch(self):
        # zero-probability outcomes between live ones, kernels on live ones, and an
        # eigenvalue in each band where a hand-set cut (1e-10, 1e-12) and the derived differ
        seen = set()

        @settings(max_examples=100)  # each band takes about one draw in seven
        @given(recovery_pairs())
        def record(pair):
            instr, rho = pair
            channels, _, sigmas = outcome_wise_channels(instr, rho)
            if any(c is None for c in channels[:-1]):
                seen.add("dead-before-another")
            if any(c is not None and len(c) > om.multiplicity
                   for c, om in zip(channels, instr.outcomes)):
                seen.add("kernel")
            if any(om.multiplicity != instr.outcomes[0].multiplicity for om in instr.outcomes):
                seen.add("mixed")
            if instr.d_in != instr.d_out:
                seen.add("rectangular")
            w = np.linalg.eigvalsh(rho.matrix)
            if ((w > rho_cut(w)) & (w <= 1e-10)).any():
                seen.add("rho-band")  # kept by sqrt(rho) only since its cut is rho_cut
            live = [s for c, s in zip(channels, sigmas) if c is not None]
            w = np.linalg.eigvalsh(np.array(live))
            if ((w > 1e-10) & (w <= posterior_cuts(w))).any():
                seen.add("posterior-band")  # kernel only since the cut is derived

        record()
        assert seen == {"dead-before-another", "kernel", "mixed", "rectangular", "rho-band",
                        "posterior-band"}


class TestOneProbabilityPerOutcome:
    """The report, its exclusions and the Petz map read one p_m per outcome:
    Tr E_m(rho), bit for bit ``outcome_probability``."""

    @staticmethod
    def assert_one_probability(instr, rho, report):
        kept = {row.label: row.p for row in report.per_outcome}
        for om in instr.outcomes:
            p = ib.outcome_probability(instr, om.label, rho)
            if om.label in kept:
                assert kept[om.label].hex() == p.hex(), om.label
                ib.petz_recovery(instr, rho, om.label)
            else:
                with pytest.raises(ib.ZeroProbabilityOutcome):
                    ib.petz_recovery(instr, rho, om.label)

    @given(recovery_pairs())
    def test_report_rows_and_petz_recovery(self, pair):
        instr, rho = pair
        self.assert_one_probability(instr, rho, ib.balance_report(instr, rho))

    @pytest.mark.parametrize("d_in, d_out, n, mult", [(8, 8, 3, 1), (16, 9, 4, 3), (33, 20, 2, 2)])
    def test_batched_rows_of_traces_summed_pairwise(self, d_in, d_out, n, mult):
        # numpy sums a diagonal of 8 or more entries pairwise, in a stack as alone
        rng = np.random.default_rng(d_in)
        instr = ib.random_instrument(d_in, d_in, d_out, n, mult)
        states = [random_state(rng, d_in, rank) for rank in (d_in, d_in // 2, 1)]
        for rho, report in zip(states, ib.balance_reports([(instr, rho) for rho in states])):
            self.assert_one_probability(instr, rho, report)


class TestKeptPosteriors:
    """The posteriors the engine keeps for a pair are ``OutcomeMap.apply``
    of each outcome, bit for bit: the state route and the Petz family read
    one sum, added from zero in Kraus order."""

    @given(recovery_pairs())
    def test_equal_outcome_map_apply(self, pair):
        instr, rho = pair
        ib.measures._analysis.cache_clear()
        kept = ib.measures._analysis(instr, rho).posteriors[0]
        expected = np.array([om.apply(rho.matrix) for om in instr.outcomes])
        assert kept.shape == expected.shape
        assert kept.tobytes() == expected.tobytes()


class TestPetzMemory:
    """Each channel is built from its own outcome, so the construction holds
    little beyond the family it returns."""

    def test_peak_is_within_three_families(self):
        instr = ib.random_instrument(0, 64, 64, 4, 3)
        rho = random_state(np.random.default_rng(0), 64)  # full rank
        ib.petz_family(instr, rho)  # keeps the pair's analysis, so only the build is traced
        tracemalloc.start()
        try:
            family = ib.petz_family(instr, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(k.nbytes for kraus in family.channels for k in kraus)
        assert peak <= 3 * size, f"peak {peak} B is {peak / size:.2f} families"
