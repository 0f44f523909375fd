import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.fft import fft, ifft

from cnls_lab import (
    ConstraintError,
    Family,
    FieldPair,
    Grid,
    ScalingParams,
    SolitonSpec,
    SupportError,
    SystemParams,
    coupling_F,
    critical_value_map_T,
    delta_of_omega,
    energy_E,
    gradient_norm_sq,
    l2_norm_sq,
    lambda_star,
    make_member,
    nehari_to_sphere,
    scale_field,
    scale_pair,
    weighted_l2_norm_sq,
    z_beta_omega,
)
from cnls_lab.minimize import nehari_project
from cnls_lab.profiles import base_profile_1d, base_profile_nd, spectral_shift

from conftest import smooth_pair


def _elliptic_residual(grid, u, omega, coeff, p):
    ku = ifft(grid.k2 * fft(u))
    return np.abs(ku + omega * u - coeff * np.abs(u) ** (2 * p - 2) * u).max()


def test_base_profile_cubic_residual(grid_1d):
    u = base_profile_1d(2.0, grid_1d)
    assert _elliptic_residual(grid_1d, u, 1.0, 1.0, 2.0) < 1e-8
    assert u.max() == pytest.approx(np.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_base_profile_general_exponent(p, grid_1d):
    u = base_profile_1d(p, grid_1d)
    assert _elliptic_residual(grid_1d, u, 1.0, 1.0, p) < 1e-7
    assert u.max() == pytest.approx(p ** (0.5 / (p - 1.0)), rel=1e-12)


def test_rescaled_profile_formula(grid_1d):
    # z(omega, beta) = (omega/(1+beta))^(1/(2(p-1))) z(1, 0)(sqrt(omega) x)
    omega, beta, p = 2.0, 3.0, 2.0
    z = z_beta_omega(omega, beta, p, grid_1d)
    x = grid_1d.axes[0]
    direct = np.sqrt(omega / (1.0 + beta)) * np.sqrt(2.0) / np.cosh(np.sqrt(omega) * x)
    assert np.abs(z - direct).max() < 1e-10
    assert _elliptic_residual(grid_1d, z, omega, 1.0 + beta, p) < 1e-7


def test_member_component_placement(grid_1d):
    params = SystemParams(p=2.0, beta=1.5, omega1=1.0, omega2=2.0)
    # the default spec carries no shift, so it builds in every dimension
    for grid in (grid_1d, Grid(2, 32, 8.0), Grid(3, 16, 8.0)):
        first = make_member(SolitonSpec.for_family(Family.SCALAR_FIRST, params), params, grid)
        assert np.abs(first.c2).max() == 0.0
        assert np.abs(first.c1).max() > 1.0
        second = make_member(SolitonSpec.for_family(Family.SCALAR_SECOND, params), params, grid)
        assert np.abs(second.c1).max() == 0.0
    # the scalar member ignores beta: it solves the single equation
    first = make_member(SolitonSpec.for_family(Family.SCALAR_FIRST, params), params, grid_1d)
    solo = SystemParams(p=2.0, beta=0.0, omega1=1.0, omega2=2.0)
    solo_first = make_member(SolitonSpec.for_family(Family.SCALAR_FIRST, solo), solo, grid_1d)
    assert np.abs(first.c1 - solo_first.c1).max() < 1e-14


def test_member_phase_and_shift(grid_1d):
    params = SystemParams(p=2.0, beta=0.0, omega1=1.0, omega2=1.0)
    spec = SolitonSpec.for_family(Family.SCALAR_FIRST, params)
    import dataclasses

    moved = dataclasses.replace(spec, theta1=0.9, shift=(1.5,))
    pair = make_member(moved, params, grid_1d)
    plain = make_member(spec, params, grid_1d)
    assert l2_norm_sq(grid_1d, pair.c1) == pytest.approx(
        l2_norm_sq(grid_1d, plain.c1), rel=1e-10
    )
    peak_at = grid_1d.axes[0][np.argmax(np.abs(pair.c1))]
    assert peak_at == pytest.approx(1.5, abs=2 * grid_1d.dx)
    phase = np.angle(pair.c1[np.argmax(np.abs(pair.c1))])
    assert phase == pytest.approx(0.9, abs=1e-6)


def test_synchronized_member_needs_equal_frequencies(grid_1d):
    params = SystemParams(p=2.0, beta=1.0, omega1=1.0, omega2=2.0)
    with pytest.raises(ConstraintError):
        make_member(SolitonSpec.for_family(Family.VECTOR_B, params), params, grid_1d)


def test_synchronized_member_components_match(grid_1d):
    params = SystemParams(p=2.0, beta=3.0, omega1=1.0, omega2=1.0)
    pair = make_member(SolitonSpec.for_family(Family.VECTOR_B, params), params, grid_1d)
    assert np.abs(pair.c1 - pair.c2).max() < 1e-14
    assert l2_norm_sq(grid_1d, pair.c1) == pytest.approx(
        delta_of_omega(1.0, 3.0, 2.0, 1, 4.0), rel=1e-9
    )


def test_spectral_shift_matches_roll(grid_1d):
    rng = np.random.default_rng(2)
    f = np.exp(-0.5 * grid_1d.axes[0] ** 2) * (1 + 0.1 * rng.standard_normal(1024))
    shifted = spectral_shift(grid_1d, f, (8 * grid_1d.dx,))
    assert np.abs(shifted - np.roll(f, 8)).max() < 1e-10


def test_scaling_identities(grid_1d_wide):
    # int |grad (mu u(l x))|^2 = mu^2 l^(2-n) int |grad u|^2, and the
    # analogous factors mu^2 l^(-n) and mu^(2p) l^(-n) for mass and coupling
    params = SystemParams(p=2.5, beta=1.0, omega1=1.0, omega2=1.0)
    pair = smooth_pair(grid_1d_wide, 17, width=1.5)
    for mu, lam in ((1.3, 1.7), (0.8, 0.6), (2.0, 1.0)):
        scaled = scale_pair(pair, ScalingParams(mu=mu, lam=lam))
        assert gradient_norm_sq(scaled) == pytest.approx(
            mu**2 * lam ** (2 - 1) * gradient_norm_sq(pair), rel=1e-9
        )
        assert weighted_l2_norm_sq(scaled, params) == pytest.approx(
            mu**2 / lam * weighted_l2_norm_sq(pair, params), rel=1e-9
        )
        assert coupling_F(scaled, params) == pytest.approx(
            mu ** (2 * params.p) / lam * coupling_F(pair, params), rel=1e-9
        )


def test_scale_round_trip(grid_1d_wide):
    pair = smooth_pair(grid_1d_wide, 23, width=1.5)
    s = ScalingParams(mu=1.4, lam=1.3)
    back = scale_pair(scale_pair(pair, s), s.inverse())
    assert np.abs(back.c1 - pair.c1).max() < 1e-9
    assert np.abs(back.c2 - pair.c2).max() < 1e-9


def test_scale_field_2d_gaussian():
    g = Grid(2, 64, 8.0)
    r2 = g.radius_sq()
    f = np.exp(-r2)
    mu, lam = 1.5, 1.25
    scaled = scale_field(g, f, ScalingParams(mu=mu, lam=lam))
    assert np.abs(scaled - mu * np.exp(-(lam**2) * r2)).max() < 1e-10


@settings(deadline=None)
@given(
    lam=st.floats(min_value=0.5, max_value=3.5),
    mu=st.floats(min_value=0.1, max_value=10.0),
)
def test_scale_field_gaussian_any_dilation(grid_1d, lam, mu):
    # dilations on both sides of 1, including lam >= 2, where stretched
    # points leave the box and must come back as zeros
    x = grid_1d.axes[0]
    scaled = scale_field(grid_1d, np.exp(-0.5 * x**2), ScalingParams(mu=mu, lam=lam))
    assert np.abs(scaled - mu * np.exp(-0.5 * lam**2 * x**2)).max() < 1e-10


def test_scale_field_refuses_wide_support():
    g = Grid(1, 256, 10.0)
    wide = np.exp(-g.axes[0] ** 2 / 60.0)
    with pytest.raises(SupportError):
        scale_field(g, wide, ScalingParams(mu=1.0, lam=1.5))


def test_scaling_params_validation():
    with pytest.raises(ValueError):
        ScalingParams(mu=0.0, lam=1.0)
    with pytest.raises(ValueError):
        ScalingParams(mu=1.0, lam=-2.0)
    s = ScalingParams(mu=2.0, lam=0.5)
    inv = s.inverse()
    assert inv.mu * s.mu == pytest.approx(1.0)
    assert inv.lam * s.lam == pytest.approx(1.0)


def test_level_map_closed_form_values():
    # subcritical cubic line: T(4/3, gamma0) = -2/3 and T(4/3, 2 gamma0) = -16/3,
    # worked out by hand from the exponent arithmetic before implementing
    m = 4.0 / 3.0
    assert critical_value_map_T(m, 4.0, 2.0, 1) == pytest.approx(-2.0 / 3.0, rel=1e-12)
    assert critical_value_map_T(m, 8.0, 2.0, 1) == pytest.approx(-16.0 / 3.0, rel=1e-12)
    with pytest.raises(ConstraintError):
        critical_value_map_T(m, 4.0, 3.0, 1)


def test_sphere_transport_lands_on_sphere(grid_1d, cubic):
    z = base_profile_1d(2.0, grid_1d)
    pair = FieldPair(grid_1d, z, np.zeros_like(z))
    for gamma, nu_expect in ((4.0, 1.0), (8.0, 4.0)):
        image, nu = nehari_to_sphere(pair, cubic, gamma)
        assert nu == pytest.approx(nu_expect, rel=1e-9)
        assert weighted_l2_norm_sq(image, cubic) == pytest.approx(gamma, rel=1e-9)
        assert energy_E(image, cubic) == pytest.approx(
            critical_value_map_T(4.0 / 3.0, gamma, 2.0, 1), rel=1e-9
        )


def test_sphere_transport_rejects_non_critical_point(grid_1d, cubic):
    pair = smooth_pair(grid_1d, 31)
    with pytest.raises(ConstraintError):
        nehari_to_sphere(pair, cubic, 4.0)


def test_dilation_peak_location(grid_1d_wide):
    # lambda_star maximizes the action along the mass-preserving dilation
    params = SystemParams(p=4.0, beta=0.0, omega1=1.0, omega2=1.0)
    pair = nehari_project(smooth_pair(grid_1d_wide, 40, width=1.2), params)[0]
    star = lambda_star(pair, params)
    from cnls_lab import action_I

    def along(lam):
        return action_I(scale_pair(pair, ScalingParams(mu=lam**0.5, lam=lam)), params)

    assert along(star) > along(star * 1.05)
    assert along(star) > along(star / 1.05)


def test_delta_of_omega_values():
    # p=2, n=1, base mass 4: delta = 4 sqrt(omega) / (1 + beta)
    assert delta_of_omega(4.0, 1.0, 2.0, 1, 4.0) == pytest.approx(4.0)
    assert delta_of_omega(1.0, 3.0, 2.0, 1, 4.0) == pytest.approx(1.0)


def test_radial_profile_2d_basics():
    g = Grid(2, 128, 10.0)
    res = base_profile_nd(2.0, g)
    u = res.values
    assert res.residual < 1e-8
    assert u.min() > -1e-10
    center = np.unravel_index(np.argmax(u), u.shape)
    assert g.axes[0][center[0]] == pytest.approx(0.0, abs=g.dx)
    assert g.axes[1][center[1]] == pytest.approx(0.0, abs=g.dx)
