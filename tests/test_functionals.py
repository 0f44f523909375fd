import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnls_lab import (
    BoundaryDecayError,
    FieldPair,
    FunctionalReport,
    Grid,
    SystemParams,
    action_I,
    coupling_F,
    coupling_gradient,
    energy_E,
    gradient_norm_sq,
    h1_norm_sq,
    l2_norm_sq,
    nehari_pairing,
    partial_pairings,
    pohozaev_check,
    variance,
    virial_R,
    weighted_l2_norm_sq,
)
from cnls_lab.functionals import boundary_amplitude_ratio
from cnls_lab.profiles import spectral_shift

from conftest import smooth_pair

# closed-form integrals of z = sqrt(2) sech(x), computed by hand before the
# implementation: int z^2 = 4, int z'^2 = 4/3, int z^4 = 16/3
Z_MASS = 4.0
Z_GRAD = 4.0 / 3.0
Z_FOURTH = 16.0 / 3.0


def _scalar_z(grid):
    z = np.sqrt(2.0) / np.cosh(grid.axes[0])
    return FieldPair(grid, z, np.zeros_like(z))


def test_scalar_soliton_quadratures(grid_1d, cubic):
    pair = _scalar_z(grid_1d)
    assert l2_norm_sq(grid_1d, pair.c1) == pytest.approx(Z_MASS, rel=1e-12)
    assert gradient_norm_sq(pair) == pytest.approx(Z_GRAD, rel=1e-10)
    assert coupling_F(pair, cubic) == pytest.approx(Z_FOURTH / 4.0, rel=1e-12)


def test_scalar_soliton_functionals(grid_1d, cubic):
    pair = _scalar_z(grid_1d)
    assert energy_E(pair, cubic) == pytest.approx(-2.0 / 3.0, rel=1e-10)
    assert action_I(pair, cubic) == pytest.approx(4.0 / 3.0, rel=1e-10)
    assert abs(virial_R(pair, cubic)) < 1e-10
    assert abs(nehari_pairing(pair, cubic)) < 1e-9


def test_scalar_soliton_variance(grid_1d):
    # int x^2 2 sech^2 x = pi^2 / 3
    pair = _scalar_z(grid_1d)
    assert variance(pair) == pytest.approx(np.pi**2 / 3.0, rel=1e-10)


def test_action_splits_into_energy_and_mass(grid_1d):
    params = SystemParams(p=2.5, beta=1.5, omega1=1.0, omega2=3.0)
    for seed in range(5):
        pair = smooth_pair(grid_1d, seed)
        assert action_I(pair, params) == pytest.approx(
            energy_E(pair, params) + 0.5 * weighted_l2_norm_sq(pair, params), rel=1e-13
        )


def test_partial_pairings_sum(grid_1d):
    params = SystemParams(p=2.0, beta=2.0, omega1=1.0, omega2=2.0)
    for seed in range(5):
        pair = smooth_pair(grid_1d, seed + 10)
        p1, p2 = partial_pairings(pair, params)
        assert p1 + p2 == pytest.approx(nehari_pairing(pair, params), rel=1e-12)
        # each pairing is the H-norm of its component minus its share of 2pF
        assert nehari_pairing(pair, params) == pytest.approx(
            h1_norm_sq(pair, params) - 2.0 * params.p * coupling_F(pair, params),
            rel=1e-12,
        )


def test_coupling_beta_zero_decouples(grid_1d):
    with_beta = SystemParams(p=2.0, beta=0.0, omega1=1.0, omega2=1.0)
    pair = smooth_pair(grid_1d, 3)
    only_first = FieldPair(grid_1d, pair.c1, np.zeros(grid_1d.shape))
    only_second = FieldPair(grid_1d, np.zeros(grid_1d.shape), pair.c2)
    assert coupling_F(pair, with_beta) == pytest.approx(
        coupling_F(only_first, with_beta) + coupling_F(only_second, with_beta),
        rel=1e-12,
    )


@settings(deadline=None, max_examples=40)
@given(
    p=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
    beta=st.floats(0.0, 3.0),
    seeds=st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
)
def test_coupling_gradient_matches_directional_derivative(grid_1d, p, beta, seeds):
    params = SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0)
    pair = smooth_pair(grid_1d, seeds[0])
    direction = smooth_pair(grid_1d, seeds[1])
    g1, g2 = coupling_gradient(pair, params)
    w = grid_1d.cell_volume
    # F is real-differentiable: dF = Re <g, h> with the L2 pairing
    inner = w * float(
        np.sum(g1 * np.conj(direction.c1) + g2 * np.conj(direction.c2)).real
    )
    # |inner| may cancel to near zero; measure the error against the size
    # of its terms
    scale = w * float(np.sum(np.abs(g1 * direction.c1) + np.abs(g2 * direction.c2)))
    h = 1e-6
    plus = coupling_F(pair + h * direction, params)
    minus = coupling_F(pair - h * direction, params)
    assert abs((plus - minus) / (2.0 * h) - inner) < 1e-7 * scale


def test_coupling_gradient_subquadratic_exponent(grid_1d):
    # p < 2 hits the |u|^(p-2) guard at zeros of the field
    params = SystemParams(p=1.5, beta=1.0, omega1=1.0, omega2=1.0)
    pair = smooth_pair(grid_1d, 12)
    g1, g2 = coupling_gradient(pair, params)
    assert np.isfinite(g1).all() and np.isfinite(g2).all()


def test_functionals_invariant_under_phase_and_shift(grid_1d):
    params = SystemParams(p=2.0, beta=0.7, omega1=1.0, omega2=2.0)
    pair = smooth_pair(grid_1d, 21)
    rotated = FieldPair(
        grid_1d, np.exp(1.1j) * pair.c1, np.exp(-0.4j) * pair.c2, copy=False
    )
    shifted = FieldPair(
        grid_1d,
        spectral_shift(grid_1d, pair.c1, (2.5,)),
        spectral_shift(grid_1d, pair.c2, (2.5,)),
        copy=False,
    )
    for other in (rotated, shifted):
        assert action_I(other, params) == pytest.approx(action_I(pair, params), rel=1e-11)
        assert energy_E(other, params) == pytest.approx(energy_E(pair, params), rel=1e-11)
        assert virial_R(other, params) == pytest.approx(virial_R(pair, params), abs=1e-10)


def test_virial_is_dilation_derivative(grid_1d_wide):
    # R(U) = d/dl I(l^(n/2) U(l x)) at l = 1 (mass-preserving dilation)
    from cnls_lab import ScalingParams, scale_pair

    params = SystemParams(p=4.0, beta=0.8, omega1=1.0, omega2=1.0)
    pair = smooth_pair(grid_1d_wide, 4, width=1.5)
    h = 1e-5
    plus = action_I(scale_pair(pair, ScalingParams(mu=(1 + h) ** 0.5, lam=1 + h)), params)
    minus = action_I(scale_pair(pair, ScalingParams(mu=(1 - h) ** 0.5, lam=1 - h)), params)
    fd = (plus - minus) / (2.0 * h)
    assert fd == pytest.approx(virial_R(pair, params), rel=1e-6)


def test_pohozaev_check_accepts_member_level(grid_1d, cubic):
    pair = _scalar_z(grid_1d)
    pc = pohozaev_check(pair, cubic, 4.0 / 3.0)
    assert pc.ok
    bad = pohozaev_check(pair, cubic, 1.5)
    assert not bad.ok
    flagged = pohozaev_check(pair, cubic, -1.0)
    assert not flagged.ok and not flagged.m_positive


def test_variance_requires_boundary_decay():
    g = Grid(1, 256, 10.0)
    wide = np.exp(-g.axes[0] ** 2 / 200.0)
    pair = FieldPair(g, wide, np.zeros_like(wide))
    with pytest.raises(BoundaryDecayError):
        variance(pair)


def test_boundary_amplitude_ratio_orders():
    g = Grid(1, 256, 10.0)
    narrow = FieldPair(g, np.exp(-g.axes[0] ** 2), np.zeros(256))
    wide = FieldPair(g, np.exp(-g.axes[0] ** 2 / 50.0), np.zeros(256))
    assert boundary_amplitude_ratio(narrow) < 1e-8
    assert boundary_amplitude_ratio(wide) > 1e-3


def test_functional_report_consistency(grid_1d):
    params = SystemParams(p=2.0, beta=0.5, omega1=1.0, omega2=2.0)
    pair = smooth_pair(grid_1d, 30)
    rep = FunctionalReport.compute(pair, params)
    assert rep.action == pytest.approx(rep.energy + 0.5 * rep.weighted_mass, rel=1e-13)
    row = rep.csv_row()
    vals = [float(tok) for tok in row.split(",")]
    assert len(vals) == len(FunctionalReport.CSV_HEADER.split(","))
    assert vals[2] == pytest.approx(rep.action)
