import numpy as np
import pytest

import infobalance as ib
from conftest import qstate


def test_filter_default_matches_fixture():
    instr = ib.filter_family(2.0 / 3.0)
    np.testing.assert_allclose(
        instr.outcomes[0].kraus[0], np.diag([1 / 3, 1.0]), atol=1e-15
    )
    np.testing.assert_allclose(
        instr.outcomes[1].kraus[0], np.diag([np.sqrt(8) / 3, 0.0]), atol=1e-15
    )


def test_filter_endpoints():
    identity_end = ib.filter_family(0.0)
    np.testing.assert_allclose(identity_end.outcomes[0].kraus[0], np.eye(2), atol=1e-15)
    rep = ib.balance_report(identity_end, qstate([0.5, 0.5]))
    assert rep.iota == pytest.approx(0.0, abs=1e-9)
    assert rep.delta == pytest.approx(0.0, abs=1e-9)
    projective_end = ib.filter_family(1.0)
    rep = ib.balance_report(projective_end, qstate([0.5, 0.5]))
    assert rep.iota == pytest.approx(1.0, abs=1e-9)


def test_partial_dephasing_projective_limit():
    instr = ib.partial_dephasing(1.0)
    rep = ib.balance_report(instr, qstate([0.5, 0.5]))
    assert rep.iota == pytest.approx(1.0, abs=1e-9)
    assert rep.delta == pytest.approx(1.0, abs=1e-9)


def test_partial_dephasing_trivial_limit():
    rep = ib.balance_report(ib.partial_dephasing(0.0), qstate([0.5, 0.5]))
    assert rep.iota == pytest.approx(0.0, abs=1e-9)
    assert rep.delta == pytest.approx(0.0, abs=1e-9)


def test_partial_dephasing_saturates_tradeoff():
    rho = qstate([0.5, 0.5])
    for t in np.linspace(0.0, 1.0, 7):
        rep = ib.balance_report(ib.partial_dephasing(float(t)), rho)
        assert rep.noise == pytest.approx(0.0, abs=1e-9)
        assert rep.iota == pytest.approx(rep.delta, abs=1e-9)


def test_depolarizing_full_erasure_fixture():
    rep = ib.balance_report(ib.depolarizing(1.0), qstate([0.5, 0.5]))
    assert rep.iota == pytest.approx(0.0, abs=1e-9)
    assert rep.delta == pytest.approx(2.0, abs=1e-9)
    assert rep.noise == pytest.approx(2.0, abs=1e-9)
    assert rep.iota_g == pytest.approx(-1.0, abs=1e-9)


def test_depolarizing_zero_is_coherent():
    rep = ib.balance_report(ib.depolarizing(0.0), qstate([0.5, 0.5]))
    assert rep.delta == pytest.approx(0.0, abs=1e-9)


def test_projective_rotated_basis_still_projective():
    rep = ib.balance_report(ib.projective(0.5), qstate([0.5, 0.5]))
    assert rep.iota == pytest.approx(1.0, abs=1e-9)


def test_all_families_validate_across_grid():
    for name, family in ib.FAMILIES.items():
        for t in np.linspace(0.0, 1.0, 5):
            assert ib.validate(family(float(t))).passed, (name, t)


def test_family_parameter_domain():
    with pytest.raises(ib.InfoBalanceError):
        ib.filter_family(1.5)
    with pytest.raises(ib.InfoBalanceError):
        ib.depolarizing(-0.1)
    with pytest.raises(ib.InfoBalanceError):
        ib.projective(7.0)
