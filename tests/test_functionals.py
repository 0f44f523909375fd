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
    relative_error,
    variance,
    virial_R,
    weighted_l2_norm_sq,
)
from cnls_lab.core import _density, _fft, _parseval_sums, gradient_norm_sq_component
from cnls_lab.functionals import _Norms, _rates, _variance, boundary_amplitude_ratio
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


@settings(deadline=None, max_examples=40)
@given(
    p=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
    beta=st.floats(0.0, 3.0),
    seed=st.integers(0, 10_000),
    holes=st.tuples(st.integers(2, 9), st.integers(2, 9)),
)
def test_rates_match_the_float_power_formula(grid_1d, p, beta, seed, holes):
    pair = smooth_pair(grid_1d, seed)
    c1, c2 = pair.c1.copy(), pair.c2.copy()
    # exact zeros in either component, and where both vanish at once
    c1[:: holes[0]] = 0.0
    c2[:: holes[1]] = 0.0
    params = SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0)
    a1, a2 = np.abs(c1), np.abs(c2)
    m = np.stack((a1**2, a2**2))
    rates = _rates(m, params, 1)
    assert rates.shape == m.shape
    for a_own, a_other, rate in zip((a1, a2), (a2, a1), rates):
        base = np.where(a_own > 0, a_own, np.inf) if p < 2 else a_own
        expected = a_own ** (2 * p - 2) + beta * a_other**p * base ** (p - 2)
        assert np.all(np.abs(rate - expected) <= 1e-13 * np.abs(expected))
    # a batch of stacks gives each member's rates
    assert np.array_equal(_rates(np.stack((m, m[::-1])), params, 1), np.stack((rates, rates[::-1])))
    # a one-row stack has no partner: its rate is m^(p-1), bit for bit the
    # coupled rate against an exactly zero partner
    zero = np.zeros_like(m[0])
    for j, a_own in enumerate((a1, a2)):
        alone = _rates(m[j : j + 1], params, 1)
        assert alone.shape == (1,) + m[0].shape
        assert np.array_equal(alone[0], _rates(np.stack((m[j], zero)), params, 1)[0])
        assert np.array_equal(alone[0], _rates(np.stack((zero, m[j])), params, 1)[1])
        expected = a_own ** (2 * p - 2)
        assert np.all(np.abs(alone[0] - expected) <= 1e-13 * expected)
        # a synchronized one-row stack is its own partner: bit for bit
        # either row of the pair (u_j, u_j)
        both = _rates(np.stack((m[j], m[j])), params, 1)
        synced = _rates(m[j : j + 1], params, 1, synchronized=True)
        assert np.array_equal(synced[0], both[0]) and np.array_equal(synced[0], both[1])


@settings(deadline=None, max_examples=100)
@given(
    dim=st.integers(1, 3),
    members=st.integers(1, 3),
    rows=st.sampled_from([1, 2]),
    p=st.sampled_from([1.5, 2.0, 2.5, 3.0, 4.0]),
    beta=st.floats(0.0, 3.0),
    seed=st.integers(0, 10_000),
)
def test_rates_read_the_component_axis_of_any_layout(dim, members, rows, p, beta, seed):
    # an (E, r, *shape) stack of squared moduli, with exact zeros
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 9, size=dim))
    m = rng.exponential(size=(members, rows) + shape)
    m[rng.random(m.shape) < 0.2] = 0.0
    params = SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0)
    rates = _rates(m, params, dim)
    assert rates.shape == m.shape
    for member, rate in zip(m, rates):
        # bit for bit the member's rows flattened into a 1d (r, n) stack
        flat = _rates(member.reshape(rows, -1), params, 1)
        assert np.array_equal(rate.reshape(rows, -1), flat)
        assert np.array_equal(_rates(member, params, dim), rate)
    if rows == 1:
        # a synchronized row reads itself as its partner, as a two-row
        # stack of equal rows does, in every layout
        both = _rates(np.concatenate((m, m), axis=1), params, dim)
        synced = _rates(m, params, dim, synchronized=True)
        assert np.array_equal(synced, both[:, :1]) and np.array_equal(synced, both[:, 1:])


@settings(deadline=None, max_examples=100)
@given(
    dim=st.integers(1, 3),
    members=st.integers(1, 3),
    rows=st.sampled_from([1, 2]),
    p=st.sampled_from([1.25, 1.5, 2.0, 2.5, 3.0, 4.0]),
    beta=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    seed=st.integers(0, 10_000),
    synchronized=st.booleans(),
)
def test_rates_written_into_their_own_moduli_keep_their_bits(dim, members, rows, p, beta, seed, synchronized):
    # the layouts of test_rates_read_the_component_axis_of_any_layout, a
    # synchronized row among them: rates formed in a copy of the moduli,
    # as the flows and the rotation form them in moduli they own, equal the
    # rates of a fresh array bit for bit, and without out m is only read
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 9, size=dim))
    m = rng.exponential(size=(members, rows) + shape)
    m[rng.random(m.shape) < 0.2] = 0.0
    params = SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0)
    synchronized = synchronized and rows == 1
    kept = m.copy()
    rates = _rates(m, params, dim, synchronized=synchronized)
    assert np.array_equal(m, kept)
    own = m.copy()
    got = _rates(own, params, dim, synchronized=synchronized, out=own)
    assert got is own
    assert got.tobytes() == np.ascontiguousarray(rates).tobytes()


_SAMPLER_HELD = {"first": slice(0, 1), "second": slice(1, 2), "both": slice(0, 2), "synchronized": slice(0, 2)}
_NORM_FIELDS = ("grad1", "grad2", "m1", "m2", "i1", "i2", "cross")


def _separate_sample(grid, params, held, U, S):
    # the record and the variance by the routes the flows and variance()
    # take, or None for a state that is not finite
    if not np.isfinite(U).all():
        return None
    m = _density(U)
    norms = _Norms.of(params, grid, held, U, _parseval_sums(grid, S))
    try:
        var = _variance(grid, m.sum(axis=0))
    except BoundaryDecayError:
        var = np.nan
    return norms, var


@settings(deadline=None, max_examples=80)
@given(
    grid=st.sampled_from([Grid(1, 64, 8.0), Grid(2, 16, 6.0), Grid(3, 8, 5.0)]),
    p=st.sampled_from([1.5, 2.0, 2.5, 3.0, 4.0]),
    beta=st.floats(0.0, 3.0),
    seeds=st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
    layout=st.sampled_from(sorted(_SAMPLER_HELD)),
    # a wide envelope has not decayed at the box edge
    width=st.sampled_from([0.8, 2.0, 50.0]),
    edit=st.sampled_from([None, "nan", "inf", "huge"]),
)
def test_sampler_matches_the_norms_and_the_variance(grid, p, beta, seeds, layout, width, edit):
    params = SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0)
    held = _SAMPLER_HELD[layout]
    synchronized = layout == "synchronized"
    sampler = _Norms.sampler(params, grid, held, synchronized)

    def stack(seed, width):
        U = smooth_pair(grid, seed, width=width).components
        return U[:1].copy() if synchronized else U[held].copy()

    # the sampler serves another state first, so stale rows would show
    before = stack(seeds[1], 50.0 if width < 50.0 else 0.8)
    with np.errstate(all="ignore"):
        sampler.measure(before, _fft(grid, before))
    U = stack(seeds[0], width)
    if edit == "huge":
        # finite, but its density overflows
        U *= 1e156
    elif edit is not None:
        U.flat[U.size // 3] = np.nan if edit == "nan" else np.inf
    S = _fft(grid, U)
    # the separate routes see the synchronized row as the pair (u, u)
    whole, whole_S = (np.concatenate((U, U)), np.concatenate((S, S))) if synchronized else (U, S)
    with np.errstate(all="ignore"):
        got = sampler.measure(U, S)
        want = _separate_sample(grid, params, held, whole, whole_S)
    if want is None:
        # a state that is not finite is not sampled
        assert got is None and edit in ("nan", "inf")
        return
    (norms, var), (ref, ref_var) = got, want
    values = [getattr(norms, name) for name in _NORM_FIELDS] + [var]
    expected = [getattr(ref, name) for name in _NORM_FIELDS] + [ref_var]
    assert np.array_equal(values, expected, equal_nan=True)
    assert (norms.params, norms.dim) == (params, grid.dim)
    if edit == "huge":
        assert not np.isfinite(values).all()
    if width == 50.0:
        assert np.isnan(var)


def test_coupling_gradient_subquadratic_exponent(grid_1d):
    # p < 2 hits the |u|^(p-2) guard at zeros of the field
    params = SystemParams(p=1.5, beta=1.0, omega1=1.0, omega2=1.0)
    pair = smooth_pair(grid_1d, 12)
    g1, g2 = coupling_gradient(pair, params)
    assert np.isfinite(g1).all() and np.isfinite(g2).all()


def test_functionals_invariant_under_phase_and_shift(grid_1d):
    params = SystemParams(p=2.0, beta=0.7, omega1=1.0, omega2=2.0)
    pair = smooth_pair(grid_1d, 21)
    rotated = FieldPair(grid_1d, np.exp(1.1j) * pair.c1, np.exp(-0.4j) * pair.c2)
    shifted = FieldPair(
        grid_1d,
        spectral_shift(grid_1d, pair.c1, (2.5,)),
        spectral_shift(grid_1d, pair.c2, (2.5,)),
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


def test_report_transforms_each_component_once(grid_1d, transform_calls):
    FunctionalReport.compute(smooth_pair(grid_1d, 5), SystemParams(p=3.0, beta=1.0, omega1=1.0, omega2=2.0))
    # one transform of the (2, *shape) components serves both
    assert transform_calls == [(2,) + grid_1d.shape]


_DEFINITION_GRIDS = (Grid(1, 256, 12.0), Grid(2, 32, 10.0))


@settings(deadline=None, max_examples=60)
@given(
    dim=st.sampled_from([1, 2]),
    p=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
    beta=st.floats(0.0, 3.0),
    omegas=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
    seed=st.integers(0, 10_000),
)
def test_functionals_match_their_definitions(dim, p, beta, omegas, seed):
    grid = _DEFINITION_GRIDS[dim - 1]
    params = SystemParams(p=p, beta=beta, omega1=omegas[0], omega2=omegas[1])
    pair = smooth_pair(grid, seed)
    zero = np.zeros(grid.shape)
    # the definitions, from the component quadratures and F alone
    grad = gradient_norm_sq_component(grid, pair.c1) + gradient_norm_sq_component(grid, pair.c2)
    m1, m2 = l2_norm_sq(grid, pair.c1), l2_norm_sq(grid, pair.c2)
    wmass = params.omega1 * m1 + params.omega2 * m2
    f_val = coupling_F(pair, params)
    # i_j = int |u_j|^2p is 2p F of the pair without the other component
    i1 = 2.0 * p * coupling_F(FieldPair(grid, pair.c1, zero), params)
    i2 = 2.0 * p * coupling_F(FieldPair(grid, zero, pair.c2), params)
    energy = 0.5 * grad - f_val
    action = energy + 0.5 * wmass
    virial = grad - dim * (p - 1.0) * f_val
    pairing = grad + wmass - 2.0 * p * f_val
    # each part takes its own integral and half of the shared 2 beta cross
    part1 = (
        gradient_norm_sq_component(grid, pair.c1) + params.omega1 * m1 - 0.5 * (2.0 * p * f_val + i1 - i2)
    )
    part2 = (
        gradient_norm_sq_component(grid, pair.c2) + params.omega2 * m2 - 0.5 * (2.0 * p * f_val + i2 - i1)
    )
    # R and the pairings can cancel to near zero: measure every error
    # against the size of the terms
    scale = grad + wmass + 2.0 * p * f_val
    rep = FunctionalReport.compute(pair, params)
    checks = {
        "FunctionalReport": (
            (rep.coupling, rep.energy, rep.action, rep.virial, rep.mass1, rep.mass2),
            (f_val, energy, action, virial, m1, m2),
        ),
        "FunctionalReport pairings": (
            (rep.weighted_mass, rep.nehari_pairing, rep.pairing1, rep.pairing2),
            (wmass, pairing, part1, part2),
        ),
        "E, I, R": (
            (energy_E(pair, params), action_I(pair, params), virial_R(pair, params)),
            (energy, action, virial),
        ),
        "pairings": (
            (nehari_pairing(pair, params), *partial_pairings(pair, params)),
            (pairing, part1, part2),
        ),
    }
    for name, (got, expected) in checks.items():
        assert np.all(np.abs(np.subtract(got, expected)) <= 1e-12 * scale), name

    # the zero-virial partitions at a positive level m
    m = scale
    check = pohozaev_check(pair, params, m)
    for residual, value, target in (
        (check.residual_gradient, grad, dim * m),
        (check.residual_coupling, f_val, m / (p - 1.0)),
        (check.residual_mass, wmass, (2.0 * p / (p - 1.0) - dim) * m),
    ):
        assert abs(residual - relative_error(value, target)) * target <= 1e-12 * scale
