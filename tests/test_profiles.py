import re

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
from cnls_lab.minimize import nehari_project, pohozaev_project
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
    # the default member carries no shift, so it builds in every dimension
    for grid in (grid_1d, Grid(2, 32, 8.0), Grid(3, 16, 8.0)):
        first = make_member(Family.SCALAR_FIRST, params, grid)
        assert np.abs(first.c2).max() == 0.0
        assert np.abs(first.c1).max() > 1.0
        second = make_member(Family.SCALAR_SECOND, params, grid)
        assert np.abs(second.c1).max() == 0.0
    # the scalar member ignores beta: it solves the single equation
    first = make_member(Family.SCALAR_FIRST, params, grid_1d)
    solo = SystemParams(p=2.0, beta=0.0, omega1=1.0, omega2=2.0)
    solo_first = make_member(Family.SCALAR_FIRST, solo, grid_1d)
    assert np.abs(first.c1 - solo_first.c1).max() < 1e-14


def test_member_phase_and_shift(grid_1d):
    params = SystemParams(p=2.0, beta=0.0, omega1=1.0, omega2=1.0)
    pair = make_member(Family.SCALAR_FIRST, params, grid_1d, theta1=0.9, shift=(1.5,))
    plain = make_member(Family.SCALAR_FIRST, params, grid_1d)
    assert l2_norm_sq(grid_1d, pair.c1) == pytest.approx(
        l2_norm_sq(grid_1d, plain.c1), rel=1e-10
    )
    peak_at = grid_1d.axes[0][np.argmax(np.abs(pair.c1))]
    assert peak_at == pytest.approx(1.5, abs=2 * grid_1d.dx)
    phase = np.angle(pair.c1[np.argmax(np.abs(pair.c1))])
    assert phase == pytest.approx(0.9, abs=1e-6)


@settings(deadline=None, max_examples=100)
@given(
    family=st.sampled_from(list(Family)),
    thetas=st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
    shift=st.floats(-20.0, 20.0),
    p=st.sampled_from([1.5, 2.0, 3.0]),
    omega2=st.sampled_from([1.0, 2.5]),
)
def test_member_rows_are_the_phased_rescaled_profile(family, thetas, shift, p, omega2):
    # params fix the member: omega_j of each populated row j, the coupling
    # for the synchronized pair only, and zeros in an unpopulated row
    grid = Grid(1, 64, 20.0)
    beta = 1.5
    params = SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0 if family is Family.VECTOR_B else omega2)
    pair = make_member(family, params, grid, theta1=thetas[0], theta2=thetas[1], shift=shift)
    populated = {Family.SCALAR_FIRST: (0,), Family.SCALAR_SECOND: (1,), Family.VECTOR_B: (0, 1)}[family]
    coupling = beta if family is Family.VECTOR_B else 0.0
    for j, (row, theta, omega) in enumerate(zip(pair.components, thetas, params.weights)):
        if j in populated:
            want = np.exp(1j * theta) * z_beta_omega(omega, coupling, p, grid, shift=shift)
            assert row.tobytes() == want.tobytes()
        else:
            assert np.all(row == 0)


def test_synchronized_member_needs_equal_frequencies(grid_1d):
    params = SystemParams(p=2.0, beta=1.0, omega1=1.0, omega2=2.0)
    with pytest.raises(ConstraintError):
        make_member(Family.VECTOR_B, params, grid_1d)


def test_synchronized_member_components_match(grid_1d):
    params = SystemParams(p=2.0, beta=3.0, omega1=1.0, omega2=1.0)
    pair = make_member(Family.VECTOR_B, params, grid_1d)
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


@pytest.mark.parametrize(
    "grid",
    [Grid(1, 1024, 24.0), Grid(1, 2048, 24.0), Grid(2, 64, 12.0), Grid(3, 32, 12.0)],
    ids=["1d-1024", "1d-2048", "2d-64", "3d-32"],
)
@pytest.mark.parametrize("lam", [0.8, 1.1])
def test_scale_pair_is_one_stacked_call(grid, lam, transform_calls):
    pair = smooth_pair(grid, 4, width=1.0)
    scaling = ScalingParams(mu=1.3, lam=lam)
    transform_calls.clear()
    scaled = scale_pair(pair, scaling)
    assert transform_calls == [(2,) + grid.shape]
    assert scaled.components.flags.c_contiguous
    for got, c in zip((scaled.c1, scaled.c2), pair.components):
        want = scale_field(grid, c, scaling)
        if grid.dim == 1:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


_GATE_GRID = Grid(1, 256, 10.0)


@pytest.mark.parametrize(
    "field, limit",
    [
        # 1e-7 of the peak at the edge, with a spectral tail of 1.4e-10
        (np.exp(-_GATE_GRID.axes[0] ** 2 / 6.0), "the box is too small"),
        # decayed at the edge but for a Nyquist checkerboard of 1e-6
        (np.exp(-_GATE_GRID.axes[0] ** 2) + 1e-6 * (-1.0) ** np.arange(256), "the grid is under-resolved: dx=0.0781"),
        # 0.19 of the peak at the edge: the seam of its periodic extension
        # leaves a spectral tail of 1.5e-5, below that edge amplitude
        (np.exp(-_GATE_GRID.axes[0] ** 2 / 60.0), "the box is too small"),
    ],
    ids=["wide_gaussian", "nyquist_checkerboard", "undecayed_edge"],
)
def test_scale_field_refuses_wide_support(field, limit):
    # the error names the limit that applies and lambda in full
    with pytest.raises(SupportError, match=r"lambda=1\.2000000000000002 .*" + re.escape(limit)):
        scale_field(_GATE_GRID, field, ScalingParams(mu=1.0, lam=0.4 * 3.0))


def test_scaling_params_validation():
    with pytest.raises(ValueError):
        ScalingParams(mu=0.0, lam=1.0)
    with pytest.raises(ValueError):
        ScalingParams(mu=1.0, lam=-2.0)
    for bad in (np.nan, np.inf):
        for mu, lam in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="finite and positive"):
                ScalingParams(mu=mu, lam=lam)
    for mu, lam, key in (("1.0", 1.0, "mu"), (True, 1.0, "mu"), (1.0, "2", "lam"), (1.0, True, "lam")):
        with pytest.raises(ValueError, match=key):
            ScalingParams(mu=mu, lam=lam)
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


@pytest.mark.parametrize("dim", [0, 2.5, -3, 7], ids=["0", "2.5", "-3", "7"])
def test_level_formulas_refuse_a_dimension_that_grid_refuses(dim):
    # the rule of Grid: 1, 2 or 3
    with pytest.raises(ValueError, match="dim must be 1, 2 or 3"):
        Grid(dim, 8, 1.0)
    with pytest.raises(ValueError, match="dim must be 1, 2 or 3"):
        critical_value_map_T(1.0, 2.0, 1.5, dim)
    with pytest.raises(ValueError, match="dim must be 1, 2 or 3"):
        delta_of_omega(2.0, 0.0, 2.0, dim, 1.0)


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


@pytest.mark.parametrize("gamma", [1e300, 1e-300])
def test_sphere_transport_refuses_a_scaling_out_of_range(grid_1d, cubic, gamma):
    # nu = (gamma / 4)^2 leaves the floating-point range, where a float ** raises
    z = base_profile_1d(2.0, grid_1d)
    with pytest.raises(ConstraintError, match="floating-point range"):
        nehari_to_sphere(FieldPair(grid_1d, z, np.zeros_like(z)), cubic, gamma)


_SHIFTED = (
    ("", lambda grid, params, shift: make_member(Family.SCALAR_FIRST, params, grid, shift=shift)),
    ("z_beta_omega-", lambda grid, params, shift: z_beta_omega(1.0, 0.0, params.p, grid, shift=shift)),
    ("spectral_shift-", lambda grid, params, shift: spectral_shift(grid, base_profile_1d(params.p, grid), shift)),
)


@pytest.mark.parametrize(
    "build, shift",
    [pytest.param(build, y, id=f"{name}{y}") for name, build in _SHIFTED for y in (np.inf, -np.inf, np.nan)],
)
def test_member_refuses_a_nonfinite_shift(grid_1d, cubic, build, shift):
    # an infinite shift would place the whole profile outside the box
    with pytest.raises(ValueError, match="finite"):
        build(grid_1d, cubic, shift)


_SMALL = Grid(1, 64, 10.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: z_beta_omega(np.inf, 0.0, 2.0, _SMALL), "finite"),
        (lambda: z_beta_omega(1.0, np.nan, 2.0, _SMALL), "finite"),
        (lambda: z_beta_omega(1.0, 0.0, np.nan, _SMALL), "finite"),
        (lambda: z_beta_omega(1.0, 0.0, 1.0, _SMALL), "p must be > 1"),
        (lambda: z_beta_omega(1.0, 0.0, 0.5, _SMALL), "p must be > 1"),
        (lambda: z_beta_omega(1.0, 0.0, 2.0, _SMALL, shift=[1.0, 2.0]), "1 finite entries"),
        (lambda: delta_of_omega(1.0, np.nan, 2.0, 1, 4.0), "finite"),
        (lambda: delta_of_omega(np.inf, 0.0, 2.0, 1, 4.0), "finite"),
        (lambda: delta_of_omega(1.0, 0.0, 1.0, 1, 4.0), "p must be > 1"),
        (lambda: delta_of_omega(1.0, 0.0, 2.0, 1, np.inf), "base_mass must be finite and positive"),
        (lambda: base_profile_1d(np.inf, _SMALL), "finite"),
        (lambda: critical_value_map_T(1.0, np.inf, 1.5, 1), "finite and positive, got m=1.0, gamma=inf"),
        (lambda: critical_value_map_T(np.inf, 1.0, 1.5, 1), "finite and positive, got m=inf, gamma=1.0"),
        (lambda: critical_value_map_T("1", 1.0, 1.5, 1), "finite and positive, got m=1, gamma=1.0"),
        (lambda: critical_value_map_T(True, 1.0, 1.5, 1), "finite and positive, got m=True, gamma=1.0"),
        (lambda: critical_value_map_T(1.0, "2", 1.5, 1), "finite and positive, got m=1.0, gamma=2"),
        (lambda: scale_field(_SMALL, np.full(64, np.nan), ScalingParams(1.0, 1.2)), "finite"),
        (lambda: scale_field(_SMALL, np.full(64, np.inf), ScalingParams(1.0, 1.0)), "finite"),
    ],
    ids=[
        "z_omega_inf", "z_beta_nan", "z_p_nan", "z_p_1", "z_p_half", "z_two_shifts_in_1d",
        "delta_beta_nan", "delta_omega_inf", "delta_p_1", "delta_base_mass_inf", "base_profile_p_inf",
        "level_map_gamma_inf", "level_map_m_inf", "level_map_m_str", "level_map_m_bool", "level_map_gamma_str",
        "scale_nan_field", "scale_inf_field",
    ],
)
def test_profiles_refuse_what_system_params_refuses(call, message):
    # each of these gave a non-finite result, a finite one for p < 1, or
    # an error other than ValueError
    with pytest.raises(ValueError, match=message):
        call()


@settings(deadline=None, max_examples=100)
@given(
    shift=st.floats(-20.0, 20.0),
    periods=st.integers(-100, 100),
    family=st.sampled_from([Family.SCALAR_FIRST, Family.VECTOR_B]),
    p=st.sampled_from([1.5, 2.0, 3.0]),
)
def test_member_shift_is_periodic_in_the_box(shift, periods, family, p):
    # a shift by whole periods 2L is no shift on the periodic box
    grid = Grid(1, 64, 20.0)
    params = SystemParams(p=p, beta=2.0, omega1=1.0, omega2=1.0)

    def member(y):
        return make_member(family, params, grid, shift=y)

    near, far = member(shift), member(shift + periods * 2.0 * grid.half_width)
    assert np.abs(far.c1 - near.c1).max() < 1e-10
    assert np.abs(far.c2 - near.c2).max() < 1e-10


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


_EDGE_PAIRS = {dim: smooth_pair(Grid(dim, 8, 4.0), 5) for dim in (1, 2, 3)}


def _refused(call, message):
    # whether call raises the ConstraintError that carries message
    try:
        call()
    except ConstraintError as exc:
        return message in str(exc)
    return False


@settings(deadline=None, max_examples=60)
@given(dim=st.sampled_from([1, 2, 3]), ulps=st.integers(-4, 4))
def test_every_site_draws_the_mass_critical_edge_alike(dim, ulps):
    # the float nearest 1 + 2/n, and a few ulps to either side of it
    p = (dim + 2.0) / dim
    for _ in range(abs(ulps)):
        p = float(np.nextafter(p, np.inf if ulps > 0 else -np.inf))
    params = SystemParams(p=p, beta=0.5, omega1=1.0, omega2=1.0)
    pair = _EDGE_PAIRS[dim]
    crit = params.criticality(dim)
    assert crit == ("critical" if ulps == 0 else "subcritical" if ulps < 0 else "supercritical")
    below, above = crit == "subcritical", crit == "supercritical"
    assert _refused(lambda: critical_value_map_T(1.0, 1.0, p, dim), "1 + 2/n") != below
    assert _refused(lambda: nehari_to_sphere(pair, params, 1.0), "1 + 2/n") != below
    assert _refused(lambda: lambda_star(pair, params), "n(p-1) > 2") != above
    assert _refused(lambda: pohozaev_project(pair, params), "1 + 2/n") != above
