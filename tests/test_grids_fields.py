import ast
import inspect
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import fftn, ifftn, irfftn, rfftn

import cnls_lab
from cnls_lab import (
    Family,
    FieldPair,
    Grid,
    GridMismatchError,
    ScalingParams,
    SystemParams,
    default_half_width,
    gradient_norm_sq,
    h1_distance,
    h1_norm_sq,
    l2_norm_sq,
    make_member,
    relative_error,
    scale_pair,
    step_strang,
    weighted_l2_norm_sq,
)
from cnls_lab import ConstraintSpec, EvolveConfig, cli, dynamics, minimize
from cnls_lab.core import (_LEAF, _blocks, _fft, _ifft, _irfft, _parseval_sums, _rfft, _tree_sum,
                           gradient_norm_sq_component)
from cnls_lab.functionals import _Norms, _variance

from conftest import smooth_pair


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
    # finite half-widths whose spacing, cell volume or |k|^2 degenerate
    for dim, bad in ((1, 5e-324), (1, 1e-300), (1, 1.7e308), (3, 1e-150), (3, 1e150)):
        with pytest.raises(ValueError, match="degenerate"):
            Grid(dim, 8, bad)
    # the dimension and the point count are integers: a float, a string or
    # a bool is refused by name, even when it holds a whole number
    for dim, n, key in (
        (1, 1024.7, "points_per_axis"),
        (1, 64.0, "points_per_axis"),
        (1, "64", "points_per_axis"),
        (1, True, "points_per_axis"),
        (1.0, 64, "dim"),
        (2.0, 16, "dim"),
        (True, 64, "dim"),
        ("1", 64, "dim"),
    ):
        with pytest.raises(ValueError, match=key):
            Grid(dim, n, 10.0)
    g = Grid(np.int64(2), np.int32(16), 5.0)
    assert g == Grid(2, 16, 5.0) and (type(g.dim), type(g.points_per_axis)) == (int, int)
    # the half-width is a real number: a string, a bool or a complex one is
    # refused by name, and an int or a numpy real reads as its float
    for bad in ("10", True, 10 + 0j, None):
        with pytest.raises(ValueError, match="half_width"):
            Grid(1, 64, bad)
    for good in (10, np.float32(10.0), np.int64(10)):
        g = Grid(1, 64, good)
        assert g == Grid(1, 64, 10.0) and type(g.half_width) is float
    # point counts past the ceiling are refused before anything is allocated
    for dim, n in ((1, 2**40), (3, 2**14)):
        with pytest.raises(ValueError, match="ceiling"):
            Grid(dim, n, 20.0)


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


def test_field_pair_shape_check(grid_1d):
    with pytest.raises(ValueError):
        FieldPair(grid_1d, np.ones(512), np.ones(1024))


def test_mixed_grid_arithmetic_raises(grid_1d):
    other = Grid(1, 1024, 22.0)
    a = FieldPair(grid_1d, np.zeros(grid_1d.shape), np.zeros(grid_1d.shape))
    b = FieldPair(other, np.zeros(other.shape), np.zeros(other.shape))
    with pytest.raises(GridMismatchError):
        _ = a + b


_LAYOUT_GRIDS = {1: Grid(1, 64, 8.0), 2: Grid(2, 16, 8.0), 3: Grid(3, 8, 8.0)}


@given(dim=st.sampled_from([1, 2, 3]), seed=st.integers(0, 10_000), real=st.booleans(), transposed=st.booleans())
def test_components_are_one_stack_whose_rows_are_the_fields(dim, seed, real, transposed):
    grid = _LAYOUT_GRIDS[dim]
    rng = np.random.default_rng(seed)

    def draw():
        f = rng.standard_normal(grid.shape)
        f = f if real else f + 1j * rng.standard_normal(grid.shape)
        # a non-contiguous input is copied into the stack all the same
        return f.T if transposed else f

    f1, f2 = draw(), draw()
    built = FieldPair(grid, f1, f2)
    assert not np.shares_memory(built.components, f1) and not np.shares_memory(built.components, f2)
    assert np.array_equal(built.c1, f1) and np.array_equal(built.c2, f2)
    other = smooth_pair(grid, seed)
    for pair in (built, built + other, built - other, 2.5 * built, built * 1j):
        U = pair.components
        assert U.shape == (2,) + grid.shape and U.dtype == np.complex128 and U.flags.c_contiguous
        for row, c in enumerate((pair.c1, pair.c2)):
            assert c.base is U and c.shape == grid.shape
            assert c.__array_interface__["data"][0] == U[row].__array_interface__["data"][0]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8).tobytes()


@settings(deadline=None, max_examples=60)
@given(
    dim=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 10_000),
    scalar=st.one_of(
        st.floats(-1e3, 1e3),
        st.integers(-5, 5),
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    ),
)
def test_pair_arithmetic_and_norms_equal_the_componentwise_expressions(dim, seed, scalar):
    # the expressions a pair of separate component arrays used, bit for bit
    grid = _LAYOUT_GRIDS[dim]
    a, b = smooth_pair(grid, seed), smooth_pair(grid, seed + 1)
    s = complex(scalar)
    cases = (
        (a + b, a.c1 + b.c1, a.c2 + b.c2),
        (a - b, a.c1 - b.c1, a.c2 - b.c2),
        (scalar * a, s * a.c1, s * a.c2),
        (a * scalar, s * a.c1, s * a.c2),
    )
    for pair, c1, c2 in cases:
        assert _bits(pair.c1) == _bits(c1) and _bits(pair.c2) == _bits(c2)
    params = SystemParams(p=1.5 + seed % 3 * 0.5, beta=0.7, omega1=1.0, omega2=1.9)
    # each component's sums from its own transform
    (grad1,), (mass1,) = _parseval_sums(grid, _fft(grid, a.c1[np.newaxis]))
    (grad2,), (mass2,) = _parseval_sums(grid, _fft(grid, a.c2[np.newaxis]))
    separate = _Norms.of(
        params,
        grid,
        slice(0, 2),
        np.stack((a.c1, a.c2)),
        ((grad1, grad2), (mass1, mass2)),
    )
    assert _Norms.measure(a, params) == separate
    assert gradient_norm_sq(a) == gradient_norm_sq_component(grid, a.c1) + gradient_norm_sq_component(grid, a.c2)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_constructor_refuses_other_shapes_and_nonfinite_entries(dim):
    grid = _LAYOUT_GRIDS[dim]
    good = np.ones(grid.shape)
    # each of these would broadcast against the grid shape
    for shape in ((1,), (), (grid.points_per_axis, 1)):
        for args in ((np.ones(shape), good), (good, np.ones(shape))):
            with pytest.raises(ValueError, match="shape"):
                FieldPair(grid, *args)
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 0.0)):
        f = good.astype(complex)
        f.flat[f.size // 2] = bad
        for args in ((f, good), (good, f)):
            with pytest.raises(ValueError, match="finite"):
                FieldPair(grid, *args)


@pytest.mark.parametrize("scalar", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)])
def test_scaling_a_pair_refuses_a_scalar_that_is_not_finite(scalar):
    pair = smooth_pair(_LAYOUT_GRIDS[1], 0)
    for scale in (lambda: scalar * pair, lambda: pair * scalar):
        with pytest.raises(ValueError, match="finite scalar"):
            scale()


_QUARTIC = SystemParams(p=4.0, beta=1.0, omega1=1.0, omega2=1.0)


def _quartic_member():
    return make_member(Family.VECTOR_B, _QUARTIC, Grid(1, 64, 10.0))


def _peaked(peak):
    # a pair of 1d Gaussians on 64 points whose larger component peaks at peak
    grid = _LAYOUT_GRIDS[1]
    u = peak * np.exp(-grid.axes[0] ** 2)
    return FieldPair(grid, u, 0.5 * u)


@pytest.mark.parametrize(
    "operation",
    [
        lambda: 1e300 * _peaked(1e10),
        lambda: _peaked(1e10) * 1e300,
        lambda: _peaked(1e308) + _peaked(1e308),
        lambda: _peaked(1e308) - _peaked(-1e308),
        lambda: scale_pair(_peaked(1e10), ScalingParams(1e300, 1.0)),
        lambda: scale_pair(_peaked(1e10), ScalingParams(1e300, 1.1)),
        lambda: minimize.nehari_project(_peaked(1e10), SystemParams(p=2.0, beta=1.0, omega1=1.0, omega2=1.0)),
        # the rates |u|^6 of a finite quartic pair overflow
        lambda: step_strang(1e60 * _quartic_member(), _QUARTIC, 1e-3),
        lambda: step_strang(_quartic_member(), _QUARTIC, math.nan),
        lambda: step_strang(_quartic_member(), _QUARTIC, math.inf),
        lambda: step_strang(_quartic_member(), _QUARTIC, "1e-3"),
        lambda: step_strang(_quartic_member(), _QUARTIC, True),
    ],
    ids=[
        "scalar_times_pair", "pair_times_scalar", "sum", "difference", "scale_pair", "scale_pair_stretched",
        "ray_projection", "strang_step", "strang_step_nan_dt", "strang_step_inf_dt",
        "strang_step_str_dt", "strang_step_bool_dt",
    ],
)
def test_pair_arithmetic_refuses_a_result_that_is_not_finite(monkeypatch, operation):
    # finite operands whose result overflows; a ray scaling of a finite pair
    # does not overflow at the supported exponents, so its factors are forged
    monkeypatch.setattr(minimize, "_scalings", lambda constraint, norms: (1e300, 1e300))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
        operation()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 4, 8, 64])
def test_boundary_mask_is_the_outermost_layer(dim, n):
    # a point is on the boundary when some index is at either edge
    index = np.indices((n,) * dim)
    expected = ((index == 0) | (index == n - 1)).any(axis=0)
    mask = Grid(dim, n, 5.0).boundary_mask()
    assert mask.dtype == bool
    assert np.array_equal(mask, expected)


def test_the_grid_keeps_its_boundary_indices_and_no_mask():
    # variance reads the boundary through the cached flat indices, 0.74 MB
    # on 128^3; boundary_mask() builds its 2 MB mask anew on every call
    grid = Grid(3, 128, 20.0)
    dens = np.exp(-grid.radius_sq())
    tracemalloc.start()
    try:
        _variance(grid, dens)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 0.8 * 2**20
    assert grid.boundary_mask() is not grid.boundary_mask()
    assert np.array_equal(grid.boundary_indices, np.flatnonzero(grid.boundary_mask()))


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
    # each parameter is a real number, refused by name when it is a string,
    # a bool or a complex number
    for key, bad in (("p", "2"), ("beta", True), ("omega1", "1"), ("omega2", True), ("beta", 0j)):
        with pytest.raises(ValueError, match=key):
            SystemParams(**{"p": 2.0, "beta": 0.0, "omega1": 1.0, "omega2": 1.0, key: bad})
    assert SystemParams(p=np.float32(2.0), beta=0, omega1=np.int64(1), omega2=1.0).p == 2.0


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


_PAIR_GRIDS = (Grid(1, 64, 5.0), Grid(2, 16, 5.0), Grid(3, 8, 5.0))


@given(
    dim=st.sampled_from([1, 2, 3]),
    stacked=st.booleans(),
    real=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_transform_pair_equals_fftn_over_the_grid_axes(dim, stacked, real, seed):
    grid = _PAIR_GRIDS[dim - 1]
    rng = np.random.default_rng(seed)
    shape = ((2,) if stacked else ()) + grid.shape
    f = rng.standard_normal(shape)
    if not real:
        f = f + 1j * rng.standard_normal(shape)
    axes = tuple(range(len(shape) - dim, len(shape)))
    np.testing.assert_array_equal(_fft(grid, f), fftn(f, axes=axes))
    np.testing.assert_array_equal(_ifft(grid, f), ifftn(f, axes=axes))


@given(dim=st.sampled_from([1, 2, 3]), rows=st.sampled_from([0, 1, 2]), seed=st.integers(0, 10_000))
def test_real_transform_pair_equals_rfftn_over_the_grid_axes(dim, rows, seed):
    grid = _PAIR_GRIDS[dim - 1]
    shape = ((rows,) if rows else ()) + grid.shape
    f = np.random.default_rng(seed).standard_normal(shape)
    axes = tuple(range(len(shape) - dim, len(shape)))
    half = _rfft(grid, f)
    np.testing.assert_array_equal(half, rfftn(f, axes=axes))
    np.testing.assert_array_equal(_irfft(grid, half), irfftn(half, s=grid.shape, axes=axes))
    np.testing.assert_allclose(_irfft(grid, half), f, rtol=0, atol=1e-13)
    assert half.shape[-1] == grid.points_per_axis // 2 + 1
    assert grid.half_k2.shape == half.shape[len(shape) - dim :]


_HALF_GRIDS = {
    1: (Grid(1, 2, 5.0), Grid(1, 4, 5.0), Grid(1, 128, 5.0)),
    2: (Grid(2, 2, 5.0), Grid(2, 8, 5.0), Grid(2, 32, 5.0)),
    3: (Grid(3, 2, 5.0), Grid(3, 4, 5.0), Grid(3, 16, 5.0)),
}


@given(
    dim=st.sampled_from([1, 2, 3]),
    size=st.integers(0, 2),
    real=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_half_spectrum_sums_match_the_full_spectrum(dim, size, real, seed):
    # the 2-point grids hold only the zero and Nyquist modes, both of
    # multiplicity 1; a real pair is held as one row, a complex one as two
    grid = _HALF_GRIDS[dim][size]
    pair = smooth_pair(grid, seed)
    if real:
        pair = FieldPair(grid, pair.c1.real, pair.c2.real)
    norms = _Norms.measure(pair, SystemParams(p=2.0, beta=1.0, omega1=1.0, omega2=1.0))
    for c, full in ((pair.c1, (norms.grad1, norms.m1)), (pair.c2, (norms.grad2, norms.m2))):
        rows = c.real[np.newaxis] if real else np.stack((c.real, c.imag))
        (grad,), (mass,) = _parseval_sums(grid, _rfft(grid, rows[np.newaxis]), half=True)
        half = (grad, mass)
        assert full[0] > 0 and full[1] > 0
        np.testing.assert_allclose(half, full, rtol=1e-13, atol=0)


# the lengths of the half-spectrum rows of the flows: q real rows of
# N^(d-1) (N/2 + 1) columns each
_HALF_LENGTHS = st.builds(
    lambda dim, e, q: q * (2**e) ** (dim - 1) * (2 ** (e - 1) + 1),
    st.integers(1, 3),
    st.integers(1, 8),
    st.integers(1, 2),
).filter(lambda n: n <= 2**19)


@settings(deadline=None, max_examples=150)
@given(
    n=st.one_of(st.integers(0, 19).map(lambda e: 2**e), _HALF_LENGTHS, st.integers(1, 2**19)),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_block_walker_sums_as_numpy_does(n, k, seed):
    # k integrands with entries of both signs over 40 decades, where any
    # other order of the additions would show in the last bits; the lengths
    # of any size split where numpy's n/2 is no multiple of 8
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-20.0, 20.0, (k, n))
    blocks = list(_blocks(n))
    # the leaves tile [0, n) left to right, none longer than a leaf
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == n and all(0 < b.stop - b.start <= _LEAF for b in blocks)
    got = _tree_sum(n, lambda block: np.ascontiguousarray(a[:, block]).sum(axis=1))
    assert got.tobytes() == a.sum(axis=1).tobytes()
    assert got.tobytes() == np.array([np.sum(row) for row in a]).tobytes()


def test_the_ceiling_grid_allocates_no_full_size_array(traced_peak):
    # |k|^2 is built on first use and |x|^2 on every call, so the 256^3
    # grid, whose full-size float array takes 128 MB, costs its axes only
    assert traced_peak(lambda: Grid(3, 256, 10.0)) < 2**20
    grid = Grid(2, 16, 3.0)
    assert "k2" not in vars(grid)
    kx, ky = np.ix_(*grid.wavenumbers)
    assert np.array_equal(grid.k2, kx**2 + ky**2) and grid.k2 is grid.k2
    x, y = np.ix_(*grid.axes)
    assert np.array_equal(grid.radius_sq(), x**2 + y**2) and grid.radius_sq() is not grid.radius_sq()


def test_only_core_imports_the_nd_transforms():
    # every grid transform goes through core._fft / core._ifft or
    # core._rfft / core._irfft
    offenders = []
    for path in sorted(Path(cnls_lab.__file__).parent.glob("*.py")):
        if path.stem == "core":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "scipy.fft":
                nd = ("fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")
                offenders += [f"{path.name}: {a.name}" for a in node.names if a.name in nd]
    assert offenders == []


def test_only_functionals_forms_the_functionals():
    # the other modules reach the functionals through _Norms and the
    # pointwise kernels, never through a private helper of their own route
    shared = {"_Norms", "_rates", "_gradient", "_variance", "_virial"}
    offenders = []
    for path in sorted(Path(cnls_lab.__file__).parent.glob("*.py")):
        if path.stem == "functionals":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("functionals", "cnls_lab.functionals"):
                offenders += [
                    f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_") and a.name not in shared
                ]
    assert offenders == []


def test_only_minimize_names_the_constraint_sizes():
    # the [constraint] keys and each kind's reads come from ConstraintSpec's
    # fields and factories, so no other module spells a size
    sizes = ("gamma", "delta1", "delta2")
    offenders = []
    for path in sorted(Path(cnls_lab.__file__).parent.glob("*.py")):
        if path.stem == "minimize":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in sizes:
                offenders.append(f"{path.name}:{node.lineno}: {node.value}")
    assert offenders == []


def test_only_the_sphere_table_names_the_sphere_kinds():
    # the flow reads a mass sphere only through minimize._spheres' rows, so
    # no other function of minimize.py branches on a sphere kind's name;
    # ConstraintSpec builds and validates them, and _multipliers keeps the
    # weighted sphere's own formula
    kinds = ("weighted_sphere", "product_spheres", "equal_spheres")
    allowed = ("ConstraintSpec", "_spheres", "_multipliers")
    tree = ast.parse(Path(minimize.__file__).read_text(encoding="utf-8"))
    offenders = []
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name in allowed:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and node.value in kinds:
                offenders.append(f"{top.name}:{node.lineno}: {node.value}")
    assert offenders == []


def _call_name(node):
    return ast.unparse(node.func) if isinstance(node, ast.Call) else ""


def test_only_core_builds_or_splits_the_component_stack():
    # FieldPair.components is the pair's one (2, *shape) array: no module
    # stacks a pair's fields again, and none asks the constructor to skip
    # its copy or its checks
    offenders = []
    for path in sorted(Path(cnls_lab.__file__).parent.glob("*.py")):
        if path.stem == "core":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = _call_name(node)
            if name in ("np.stack", "numpy.stack"):
                fields = [
                    sub
                    for arg in node.args
                    for sub in ast.walk(arg)
                    if isinstance(sub, ast.Attribute) and sub.attr in ("components", "c1", "c2")
                ]
                if fields:
                    offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            if name.split(".")[-1] == "FieldPair" and any(k.arg in ("copy", "check") for k in node.keywords):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert offenders == []


def test_every_keyword_only_option_is_passed_somewhere():
    # an option that no call sets can only hold its default, so it is a
    # constant: every keyword-only parameter of a public function, or of a
    # public method of a public class, is passed by name in some call to a
    # callee of that name in the sources, the tests or the benchmark
    options = []
    for path in sorted(Path(cnls_lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef) and not n.name.startswith("_")]
        for scope in scopes:
            for node in scope.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    options += [(path.stem, node.name, a.arg) for a in node.args.kwonlyargs]
    root = Path(__file__).resolve().parents[1]
    passed = set()
    for pattern in ("src/**/*.py", "tests/*.py", "perfbench/*.py"):
        for path in root.glob(pattern):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    callee = _call_name(node).split(".")[-1]
                    passed.update((callee, k.arg) for k in node.keywords)
    # the CLI passes its table's keywords as **kwargs, so each entry counts
    # once it names a keyword parameter, with a default, of its callee
    for *_, callee, name in cli._FEEDS:
        parameter = inspect.signature(callee).parameters[name]
        assert parameter.kind in (parameter.KEYWORD_ONLY, parameter.POSITIONAL_OR_KEYWORD), (callee, name)
        assert parameter.default is not parameter.empty, (callee, name)
        passed.add((callee.__name__, name))
    assert options
    assert [f"{module}.{name}: {arg}" for module, name, arg in options if (name, arg) not in passed] == []


_BOUNDARY_GRID = Grid(1, 64, 10.0)
_BOUNDARY_PARAMS = SystemParams(p=2.0, beta=0.0, omega1=1.0, omega2=1.0)
_BOUNDARY_PAIR = make_member(Family.SCALAR_FIRST, _BOUNDARY_PARAMS, _BOUNDARY_GRID)

# each public callable that reads a caller's number: its valid keywords and
# an out-of-range value of each numeric one
_BOUNDARIES = [
    (Grid, dict(dim=1, points_per_axis=64, half_width=10.0), dict(dim=4, points_per_axis=48, half_width=-1.0)),
    (SystemParams, dict(p=2.0, beta=0.0, omega1=1.0, omega2=1.0), dict(p=1.0, beta=-1.0, omega1=0.0, omega2=-1.0)),
    (
        EvolveConfig,
        dict(dt=1e-3, t_end=1.0, snapshot_stride=0, conservation_check_stride=100, blowup_guard=1e6),
        dict(dt=0.0, t_end=-1.0, snapshot_stride=-1, conservation_check_stride=0, blowup_guard=1.0),
    ),
    (step_strang, dict(pair=_BOUNDARY_PAIR, params=_BOUNDARY_PARAMS, dt=1e-3), dict(dt=math.inf)),
    (ConstraintSpec.weighted_sphere, dict(gamma=1.0), dict(gamma=0.0)),
    (ConstraintSpec.product_spheres, dict(delta1=1.0, delta2=0.0), dict(delta1=0.0, delta2=-1.0)),
    (ConstraintSpec.equal_spheres, dict(delta1=1.0), dict(delta1=-1.0)),
    (
        cnls_lab.minimize_on,
        dict(constraint=ConstraintSpec.nehari(), params=_BOUNDARY_PARAMS, grid=_BOUNDARY_GRID, tol=1e-8,
             max_iter=10, seed=0),
        dict(tol=0.0, max_iter=0, seed=-1),
    ),
    (
        cnls_lab.ground_state,
        dict(params=_BOUNDARY_PARAMS, grid=_BOUNDARY_GRID, tol=1e-8, max_iter=10, seed=0),
        dict(tol=0.0, max_iter=10**8 + 1, seed=-1),
    ),
    (cnls_lab.gaussian_init, dict(grid=_BOUNDARY_GRID, params=_BOUNDARY_PARAMS, seed=0), dict(seed=-1)),
    (cnls_lab.perturbation_pair, dict(grid=_BOUNDARY_GRID, params=_BOUNDARY_PARAMS, seed=0), dict(seed=-1)),
    (ScalingParams, dict(mu=1.0, lam=1.0), dict(mu=0.0, lam=-1.0)),
    (cnls_lab.base_profile_1d, dict(p=2.0, grid=_BOUNDARY_GRID), dict(p=1.0)),
    (cnls_lab.base_profile_nd, dict(p=2.0, grid=Grid(2, 16, 8.0), omega=1.0), dict(p=1.0, omega=0.0)),
    (
        cnls_lab.z_beta_omega,
        dict(omega=1.0, beta=0.0, p=2.0, grid=_BOUNDARY_GRID, shift=0.0),
        dict(omega=0.0, beta=-1.0, p=1.0, shift=math.inf),
    ),
    (
        make_member,
        dict(family=Family.SCALAR_FIRST, params=_BOUNDARY_PARAMS, grid=_BOUNDARY_GRID, theta1=0.0, theta2=0.0,
             shift=0.0),
        dict(theta1=math.inf, theta2=-math.inf, shift=math.inf),
    ),
    (cnls_lab.profiles.spectral_shift, dict(grid=_BOUNDARY_GRID, f=np.zeros(64), shift=0.0), dict(shift=math.inf)),
    (
        cnls_lab.critical_value_map_T,
        dict(m=1.0, gamma=2.0, p=1.5, dim=1),
        dict(m=0.0, gamma=-1.0, p=1.0, dim=4),
    ),
    (cnls_lab.nehari_to_sphere, dict(pair=_BOUNDARY_PAIR, params=_BOUNDARY_PARAMS, gamma=4.0), dict(gamma=0.0)),
    (
        cnls_lab.delta_of_omega,
        dict(omega=1.0, beta=0.0, p=2.0, dim=1, base_mass=4.0),
        dict(omega=0.0, beta=-1.0, p=1.0, dim=0, base_mass=0.0),
    ),
    (
        cnls_lab.stability_sweep,
        dict(params=_BOUNDARY_PARAMS, grid=_BOUNDARY_GRID, epsilons=(0.0,), dt=1e-3, t_end=0.01, sample_dt=5e-3,
             seed=0, excursion_ratio=10.0, zero_orbit_tol=1e-5, tol=1e-8),
        dict(epsilons=(math.inf,), dt=math.inf, t_end=-1.0, sample_dt=0.0, seed=-1, excursion_ratio=0.5,
             zero_orbit_tol=0.0, tol=0.0),
    ),
    (
        cnls_lab.blowup_experiment,
        dict(params=SystemParams(p=4.0, beta=0.0, omega1=1.0, omega2=1.0), grid=_BOUNDARY_GRID, factor=1.1,
             dt=1e-3, t_max=0.01, guard_ratio=20.0, window_fraction=0.8, margin=0.05, tol=1e-8, seed=0),
        dict(factor=1.0, dt=0.0, t_max=-1.0, guard_ratio=1.0, window_fraction=1.5, margin=1.0, tol=0.0, seed=-1),
    ),
    (
        cnls_lab.identity_audit,
        dict(params=_BOUNDARY_PARAMS, grid=_BOUNDARY_GRID, tol=1e-3, gamma_factors=(1.0,), flow_tol=1e-8,
             seed=0),
        dict(tol=0.0, gamma_factors=(0.0,), flow_tol=0.0, seed=-1),
    ),
]

# public functions whose numbers are data, not settings: a level, a
# reference value or a frequency pair to compute from
_NOT_BOUNDARIES = {"default_half_width", "relative_error", "pohozaev_check"}


def _numeric(parameter) -> bool:
    return bool(re.search(r"\b(float|int)\b", str(parameter.annotation)))


def test_every_numeric_keyword_refuses_what_is_not_its_number_before_any_run(monkeypatch):
    # every public function with a float or int parameter is a row of the
    # table, and every such parameter of a row has an out-of-range value
    tabled = {call.__name__ for call, _, _ in _BOUNDARIES}
    for name in dir(cnls_lab):
        obj = getattr(cnls_lab, name)
        if inspect.isfunction(obj) and any(map(_numeric, inspect.signature(obj).parameters.values())):
            assert name in tabled | _NOT_BOUNDARIES, name
    for call, valid, bad in _BOUNDARIES:
        numeric = [key for key, par in inspect.signature(call).parameters.items() if _numeric(par)]
        assert set(numeric) <= set(bad), call.__name__
    # numpy integer and float scalars, and an array of epsilons, are numbers
    assert Grid(np.int64(1), np.int32(64), np.float32(10.0)) == _BOUNDARY_GRID
    assert SystemParams(np.float32(2.0), np.int64(0), np.float64(1.0), 1).p == 2.0
    assert EvolveConfig(np.float32(1e-3), np.int64(1), np.int8(2), np.uint16(5), np.float32(5.0)).t_end == 1
    assert ConstraintSpec.product_spheres(np.int64(2), np.float32(0.0)).delta2 == 0.0
    assert cnls_lab.critical_value_map_T(np.float64(4 / 3), np.int64(4), 2.0, np.int64(1)) == pytest.approx(-2 / 3)
    member = make_member(Family.SCALAR_FIRST, _BOUNDARY_PARAMS, _BOUNDARY_GRID, theta1=np.float64(0.5),
                         shift=np.float32(1.0))
    assert np.array_equal(member.c1, make_member(Family.SCALAR_FIRST, _BOUNDARY_PARAMS, _BOUNDARY_GRID,
                                                 theta1=0.5, shift=1.0).c1)
    for draw in (cnls_lab.gaussian_init, cnls_lab.perturbation_pair):
        assert np.array_equal(draw(_BOUNDARY_GRID, _BOUNDARY_PARAMS, seed=np.uint8(3)).components,
                              draw(_BOUNDARY_GRID, _BOUNDARY_PARAMS, seed=3).components)
    sweep = dict(family="vector_b", t_end=0.02, sample_dt=0.01, seed=np.int64(1))
    array, listed = (cnls_lab.stability_sweep(_BOUNDARY_PARAMS, Grid(1, 64, 20.0), epsilons=epsilons, **sweep)
                     for epsilons in (np.array([0.0, 1e-3]), (0.0, 1e-3)))
    assert (array.epsilons, array.max_excursions) == (listed.epsilons, listed.max_excursions)

    def no_run(*args, **kwargs):
        raise AssertionError("a flow or an evolution ran before the number was checked")

    # the first step of every flow and of every evolution
    monkeypatch.setattr(minimize, "_project_state", no_run)
    monkeypatch.setattr(dynamics, "_evolve_stack", no_run)
    for call, valid, bad in _BOUNDARIES:
        for key, out_of_range in bad.items():
            values = [True, False, "1", 1 + 0j, math.nan, out_of_range]
            if isinstance(valid[key], tuple):
                values = [(v,) for v in values[:-1]] + [out_of_range]
            for value in values:
                with pytest.raises(ValueError, match=re.escape(key)):
                    call(**{**valid, key: value})


def _scipy_modules_after(statement):
    """The scipy modules loaded by a fresh interpreter that runs statement."""
    env = dict(os.environ, PYTHONPATH=str(Path(cnls_lab.__file__).parents[1]))
    code = f"import sys\n{statement}\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def test_package_loads_no_scipy_beyond_scipy_fft():
    # every process pays its imports: scipy.optimize alone would pull in
    # scipy.linalg, scipy.sparse and scipy.spatial
    loaded = _scipy_modules_after("import cnls_lab, cnls_lab.cli")
    assert "scipy.fft" in loaded
    assert loaded - _scipy_modules_after("import scipy.fft") == set()
