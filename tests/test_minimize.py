import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnls_lab import (
    ConstraintError,
    ConstraintSpec,
    ConvergenceError,
    FieldPair,
    Grid,
    SystemParams,
    coupling_F,
    gaussian_init,
    ground_state,
    gradient_norm_sq,
    h1_norm_sq,
    l2_norm_sq,
    minimize_on,
    multiplier_extract,
    nehari_pairing,
    nehari_project,
    nehari_set_project,
    partial_pairings,
    pohozaev_project,
    virial_R,
    weighted_l2_norm_sq,
)

from conftest import smooth_pair


def _cubic(beta):
    return SystemParams(p=2.0, beta=beta, omega1=1.0, omega2=1.0)


# closed-form levels on the cubic line, fixed before the flow existed:
# scalar level 4/3; synchronized pair level (8/3)/(1+beta)
SCALAR_LEVEL = 4.0 / 3.0


def pair_level(beta):
    return (8.0 / 3.0) / (1.0 + beta)


def test_ray_flow_reaches_scalar_level(grid_1d):
    res = minimize_on(ConstraintSpec.nehari(), _cubic(0.0), grid_1d)
    assert res.action == pytest.approx(SCALAR_LEVEL, rel=1e-8)
    assert res.classification in ("scalar_first", "scalar_second")
    assert res.residual < 1e-8
    assert res.constraint_residual < 1e-10


def test_sphere_flow_energies_and_multipliers(grid_1d):
    # E_min = -2/3 at gamma = 4 with multiplier 1; -16/3 at gamma = 8 with
    # multiplier 4 (hand-derived from the dilation structure of the line)
    for gamma, e_expect, nu_expect in ((4.0, -2.0 / 3.0, 1.0), (8.0, -16.0 / 3.0, 4.0)):
        res = minimize_on(ConstraintSpec.weighted_sphere(gamma), _cubic(0.0), grid_1d)
        assert res.energy == pytest.approx(e_expect, rel=1e-7)
        assert weighted_l2_norm_sq(res.minimizer, _cubic(0.0)) == pytest.approx(gamma, rel=1e-12)
        assert len(res.multipliers) == 1
        assert res.multipliers[0] == pytest.approx(nu_expect, rel=1e-6)


def test_sphere_multipliers_cross_check(grid_1d):
    res = minimize_on(ConstraintSpec.weighted_sphere(4.0), _cubic(0.0), grid_1d)
    extracted = multiplier_extract(res.minimizer, _cubic(0.0), ConstraintSpec.weighted_sphere(4.0))
    assert extracted[0] == pytest.approx(res.multipliers[0], rel=1e-6)


def test_pinned_second_component_stays_zero(grid_1d):
    res = minimize_on(ConstraintSpec.product_spheres(4.0, 0.0), _cubic(1.0), grid_1d)
    assert np.abs(res.minimizer.c2).max() == 0.0
    assert l2_norm_sq(grid_1d, res.minimizer.c1) == pytest.approx(4.0, rel=1e-12)
    # pinned scalar problem at mass 4 is the gamma = 4 sphere problem
    assert res.energy == pytest.approx(-2.0 / 3.0, rel=1e-7)


def test_equal_spheres_reaches_synchronized_level(grid_1d):
    beta = 2.0
    delta = 4.0 / (1.0 + beta)
    res = minimize_on(ConstraintSpec.equal_spheres(delta), _cubic(beta), grid_1d)
    assert res.action == pytest.approx(pair_level(beta), rel=1e-7)
    assert res.energy == pytest.approx(-4.0 / 9.0, rel=1e-6)
    assert res.classification == "vector"


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
def test_two_sided_flow_level(grid_1d, beta):
    res = minimize_on(ConstraintSpec.nehari_set(), _cubic(beta), grid_1d)
    assert res.action == pytest.approx(pair_level(beta), rel=1e-7)
    assert res.classification == "vector"


def test_ground_state_scalar_below_coupling_threshold(grid_1d):
    res = ground_state(_cubic(0.5), grid_1d)
    assert res.classification in ("scalar_first", "scalar_second")
    assert res.action == pytest.approx(SCALAR_LEVEL, rel=1e-7)


def test_ground_state_vector_above_coupling_threshold(grid_1d):
    res = ground_state(_cubic(2.0), grid_1d)
    assert res.classification == "vector"
    assert res.action == pytest.approx(pair_level(2.0), rel=1e-7)


def test_ground_state_deterministic(grid_1d):
    a = ground_state(_cubic(2.0), grid_1d, seed=5)
    b = ground_state(_cubic(2.0), grid_1d, seed=5)
    assert a.action == b.action
    assert np.array_equal(a.minimizer.c1, b.minimizer.c1)


def test_zero_virial_flow_matches_gamma_level(grid_1d):
    # supercritical level from the sech power integrals:
    # m = 2^(8/3)/8 sqrt(pi) Gamma(4/3) / Gamma(11/6)
    params = SystemParams(p=4.0, beta=0.0, omega1=1.0, omega2=1.0)
    m_expect = 2.0 ** (8.0 / 3.0) / 8.0 * math.sqrt(math.pi) * math.gamma(4.0 / 3.0) / math.gamma(11.0 / 6.0)
    res_ray = minimize_on(ConstraintSpec.nehari(), params, grid_1d)
    res_zero = minimize_on(ConstraintSpec.pohozaev(), params, grid_1d)
    assert res_ray.action == pytest.approx(m_expect, rel=1e-8)
    assert res_zero.action == pytest.approx(m_expect, rel=1e-8)


def test_history_is_monotone(grid_1d):
    res = minimize_on(ConstraintSpec.nehari(), _cubic(1.0), grid_1d)
    slack = 1e-12 * max(1.0, abs(res.value))
    assert (np.diff(res.history) <= slack).all()


def test_flow_raises_when_starved(grid_1d):
    with pytest.raises(ConvergenceError):
        minimize_on(ConstraintSpec.nehari(), _cubic(0.0), grid_1d, max_iter=3)


def test_constraint_validation_refusals(grid_1d):
    supercritical = SystemParams(p=4.0, beta=0.0, omega1=1.0, omega2=1.0)
    with pytest.raises(ConstraintError):
        minimize_on(ConstraintSpec.weighted_sphere(4.0), supercritical, grid_1d)
    with pytest.raises(ConstraintError):
        minimize_on(ConstraintSpec.pohozaev(), _cubic(0.0), grid_1d)
    g3 = Grid(3, 16, 10.0)
    beyond = SystemParams(p=3.0, beta=0.0, omega1=1.0, omega2=1.0)
    with pytest.raises(ConstraintError):
        minimize_on(ConstraintSpec.nehari(), beyond, g3)


def test_constraint_spec_validation():
    with pytest.raises(ValueError):
        ConstraintSpec.weighted_sphere(-1.0)
    with pytest.raises(ValueError):
        ConstraintSpec.product_spheres(0.0, 1.0)
    with pytest.raises(ValueError):
        ConstraintSpec.product_spheres(1.0, -1.0)
    assert ConstraintSpec.equal_spheres(2.0).delta2 == 2.0


@settings(deadline=None, max_examples=40)
@given(
    p=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
    beta=st.floats(0.0, 3.0),
    seed=st.integers(0, 10_000),
    kappa=st.floats(0.2, 5.0),
    theta=st.floats(-np.pi, np.pi),
)
def test_projection_helpers_land_on_sets(grid_1d_wide, p, beta, seed, kappa, theta):
    params = SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0)
    pair = smooth_pair(grid_1d_wide, seed, width=1.5)
    on_ray, t = nehari_project(pair, params)
    assert t > 0
    assert abs(nehari_pairing(on_ray, params)) < 1e-12 * h1_norm_sq(on_ray, params)

    # the two-sided set meets the scaling orbit of every pair with
    # proportional components, but misses that of some others
    paired = FieldPair(grid_1d_wide, pair.c1, kappa * np.exp(1j * theta) * pair.c1)
    try:
        both, (t1, t2) = nehari_set_project(paired, params)
    except ConvergenceError:
        # at beta = p - 1 the symmetric scaling is a pitchfork of the
        # scaling equations (singular Jacobian), and roundoff in the
        # quadratures can leave no scaling within the solver's tolerance
        assert abs(beta - (p - 1.0)) < 1e-6
    else:
        assert t1 > 0 and t2 > 0
        p1, p2 = partial_pairings(both, params)
        assert max(abs(p1), abs(p2)) < 1e-12 * h1_norm_sq(both, params)

    if p == 2.0:
        # at p = 2 the two-sided scalings solve a linear system in
        # s_j = t_j^2, so the raw pair reaches the set exactly when its
        # solution is positive
        zero = np.zeros(grid_1d_wide.shape)
        parts = (FieldPair(grid_1d_wide, pair.c1, zero), FieldPair(grid_1d_wide, zero, pair.c2))
        a = [h1_norm_sq(u, params) for u in parts]
        b = [4.0 * coupling_F(u, params) for u in parts]
        c = 2.0 * coupling_F(pair, params) - 0.5 * (b[0] + b[1])
        s = np.linalg.solve([[b[0], c], [c, b[1]]], a)
        if s.min() > 1e-3 * s.max():
            _, (t1, t2) = nehari_set_project(pair, params)
            assert (t1**2, t2**2) == pytest.approx(tuple(s), rel=1e-9)
        elif s.min() < -1e-3 * s.max():
            with pytest.raises((ConstraintError, ConvergenceError)):
                nehari_set_project(pair, params)

    if params.criticality(1) == "supercritical":
        on_zero, tz = pohozaev_project(pair, params)
        assert tz > 0
        assert abs(virial_R(on_zero, params)) < 1e-12 * h1_norm_sq(on_zero, params)
    else:
        with pytest.raises(ConstraintError):
            pohozaev_project(pair, params)


def test_gaussian_init_modes(grid_1d):
    params = _cubic(0.0)
    first = gaussian_init(grid_1d, params, mode="first")
    assert np.abs(first.c2).max() == 0.0
    paired = gaussian_init(grid_1d, params, mode="paired")
    assert np.array_equal(paired.c1, paired.c2)
    both = gaussian_init(grid_1d, params, mode="both")
    assert not np.array_equal(both.c1, both.c2)
    with pytest.raises(ValueError):
        gaussian_init(grid_1d, params, mode="everything")
