import numpy as np
import pytest

from cnls_lab import (
    FieldPair,
    Grid,
    GridMismatchError,
    SystemParams,
    default_half_width,
    gradient_norm_sq,
    h1_distance,
    h1_norm_sq,
    l2_norm_sq,
    relative_error,
    weighted_l2_norm_sq,
)


def test_grid_axes_and_spacing():
    g = Grid(1, 256, 10.0)
    assert g.dx == pytest.approx(20.0 / 256)
    assert g.axes[0][0] == -10.0
    # half-open box: the right endpoint is excluded
    assert g.axes[0][-1] == pytest.approx(10.0 - g.dx)
    assert g.cell_volume == pytest.approx(g.dx)
    assert g.total_points == 256


def test_grid_2d_shapes():
    g = Grid(2, 64, 8.0)
    assert g.shape == (64, 64)
    assert g.total_points == 64 * 64
    assert g.cell_volume == pytest.approx(g.dx**2)
    assert g.k2.shape == (64, 64)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1, 100, 10.0)  # not a power of two
    with pytest.raises(ValueError):
        Grid(0, 64, 10.0)
    with pytest.raises(ValueError):
        Grid(1, 64, -1.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            Grid(1, 64, bad)


def test_grid_equality_and_hash():
    assert Grid(1, 64, 5.0) == Grid(1, 64, 5.0)
    assert Grid(1, 64, 5.0) != Grid(1, 128, 5.0)
    assert hash(Grid(2, 64, 5.0)) == hash(Grid(2, 64, 5.0))


def test_spectral_derivative_exactness():
    # d/dx sin(kx) = k cos(kx) holds to machine precision for resolved modes
    g = Grid(1, 256, np.pi)
    x = g.axes[0]
    f = np.sin(3.0 * x)
    df = np.fft.ifft(1j * g.wavenumbers[0] * np.fft.fft(f)).real
    assert np.abs(df - 3.0 * np.cos(3.0 * x)).max() < 1e-12


def test_default_half_width_grows_with_slow_decay():
    assert default_half_width(0.25, 2.0) > default_half_width(1.0, 2.0)


def test_field_pair_algebra(grid_1d):
    rng = np.random.default_rng(3)
    a = FieldPair(grid_1d, rng.standard_normal(1024), rng.standard_normal(1024))
    b = FieldPair(grid_1d, rng.standard_normal(1024), rng.standard_normal(1024))
    s = a + b
    d = a - b
    assert np.allclose(s.c1, a.c1 + b.c1)
    assert np.allclose(d.c2, a.c2 - b.c2)
    t = 2.5 * a
    assert np.allclose(t.c1, 2.5 * a.c1)
    assert np.allclose((a * 2.5).c2, 2.5 * a.c2)


def test_field_pair_copy_isolation(grid_1d):
    src = np.ones(1024)
    pair = FieldPair(grid_1d, src, src)
    src[:] = 7.0
    assert pair.c1[0] == 1.0
    clone = pair.copy()
    assert clone.c1 is not pair.c1
    assert np.array_equal(clone.c1, pair.c1)


def test_field_pair_shape_check(grid_1d):
    with pytest.raises(ValueError):
        FieldPair(grid_1d, np.ones(512), np.ones(1024))


def test_mixed_grid_arithmetic_raises(grid_1d):
    other = Grid(1, 1024, 22.0)
    a = FieldPair.zeros(grid_1d)
    b = FieldPair.zeros(other)
    with pytest.raises(GridMismatchError):
        _ = a + b


def test_l2_norm_against_gaussian_integral(grid_1d):
    # int exp(-x^2) dx = sqrt(pi)
    f = np.exp(-0.5 * grid_1d.axes[0] ** 2)
    assert l2_norm_sq(grid_1d, f) == pytest.approx(np.sqrt(np.pi), rel=1e-12)


def test_gradient_norm_against_gaussian_integral(grid_1d):
    # int |d/dx exp(-x^2/2)|^2 = int x^2 exp(-x^2) = sqrt(pi)/2
    f = np.exp(-0.5 * grid_1d.axes[0] ** 2)
    pair = FieldPair(grid_1d, f, np.zeros_like(f))
    assert gradient_norm_sq(pair) == pytest.approx(np.sqrt(np.pi) / 2.0, rel=1e-12)


def test_weighted_norms(grid_1d):
    params = SystemParams(p=2.0, beta=0.0, omega1=2.0, omega2=5.0)
    f = np.exp(-0.5 * grid_1d.axes[0] ** 2)
    pair = FieldPair(grid_1d, f, 3.0 * f)
    m = l2_norm_sq(grid_1d, f)
    assert weighted_l2_norm_sq(pair, params) == pytest.approx(2.0 * m + 5.0 * 9.0 * m)
    assert h1_norm_sq(pair, params) == pytest.approx(
        gradient_norm_sq(pair) + weighted_l2_norm_sq(pair, params)
    )


def test_h1_distance_properties(grid_1d, cubic):
    rng = np.random.default_rng(11)
    a = FieldPair(grid_1d, rng.standard_normal(1024), rng.standard_normal(1024))
    b = FieldPair(grid_1d, rng.standard_normal(1024), rng.standard_normal(1024))
    assert h1_distance(a, a, cubic) == 0.0
    assert h1_distance(a, b, cubic) == pytest.approx(h1_distance(b, a, cubic))
    assert h1_distance(a, b, cubic) > 0


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(p=1.0, beta=0.0, omega1=1.0, omega2=1.0)
    with pytest.raises(ValueError):
        SystemParams(p=2.0, beta=-0.1, omega1=1.0, omega2=1.0)
    with pytest.raises(ValueError):
        SystemParams(p=2.0, beta=0.0, omega1=0.0, omega2=1.0)
    for bad in (
        dict(beta=np.nan),
        dict(p=np.inf),
        dict(omega1=np.inf),
        dict(omega2=np.nan),
        dict(beta=np.inf),
    ):
        with pytest.raises(ValueError):
            SystemParams(**{"p": 2.0, "beta": 0.0, "omega1": 1.0, "omega2": 1.0, **bad})


def test_criticality_table():
    pr = lambda p: SystemParams(p=p, beta=0.0, omega1=1.0, omega2=1.0)
    assert pr(2.0).criticality(1) == "subcritical"
    assert pr(3.0).criticality(1) == "critical"
    assert pr(4.0).criticality(1) == "supercritical"
    assert pr(2.0).criticality(2) == "critical"
    assert pr(1.5).criticality(2) == "subcritical"


def test_existence_bound():
    pr = lambda p: SystemParams(p=p, beta=0.0, omega1=1.0, omega2=1.0)
    assert pr(10.0).existence_ok(2)
    assert pr(2.5).existence_ok(3)
    assert not pr(3.0).existence_ok(3)


def test_relative_error_scales():
    assert relative_error(1.0, 1.0) == 0.0
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1.1, 1.0) == pytest.approx(0.1, rel=1e-12)
