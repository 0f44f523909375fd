import contextlib
import dataclasses
import math
import re
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq

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
    h1_distance,
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
from cnls_lab import minimize

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


def test_product_spheres_with_unequal_targets_decouple(grid_1d):
    # at beta = 0 each component solves its own sphere problem, so the two
    # targets give the gamma = 4 and gamma = 8 values of the sphere flow
    constraint = ConstraintSpec.product_spheres(4.0, 8.0)
    res = minimize_on(constraint, _cubic(0.0), grid_1d)
    assert res.energy == pytest.approx(-2.0 / 3.0 - 16.0 / 3.0, rel=1e-7)
    assert l2_norm_sq(grid_1d, res.minimizer.c1) == pytest.approx(4.0, rel=1e-12)
    assert l2_norm_sq(grid_1d, res.minimizer.c2) == pytest.approx(8.0, rel=1e-12)
    assert res.multipliers == pytest.approx((1.0, 4.0), rel=1e-6)
    extracted = multiplier_extract(res.minimizer, _cubic(0.0), constraint)
    assert extracted == pytest.approx(res.multipliers, rel=1e-6)


@pytest.mark.parametrize("dim", [1, 2])
def test_equal_spheres_are_product_spheres_with_equal_targets(dim):
    # both kinds are the rows ((1, 0), delta) and ((0, 1), delta), so they
    # run one flow bit for bit; only the label tells them apart
    grid = _PHASE_GRIDS[dim - 1]
    params = SystemParams(p=1.5, beta=0.7, omega1=1.0, omega2=1.7)
    equal, product = ConstraintSpec.equal_spheres(1.5), ConstraintSpec.product_spheres(1.5, 1.5)
    assert equal.describe() != product.describe()
    a, b = (minimize_on(c, params, grid, tol=1e-9) for c in (equal, product))
    for field in dataclasses.fields(minimize.MinimizeResult):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, FieldPair):
            x, y = x.components, y.components
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field.name
        else:
            assert x == y, field.name
    assert multiplier_extract(a.minimizer, params, equal) == multiplier_extract(b.minimizer, params, product)


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


def test_ground_state_gives_a_roundoff_tie_to_the_earliest_start():
    # the mirror scalar starts reach the same level up to a few ulps, in an
    # order that roundoff decides; the first start must win every time
    grid = Grid(1, 256, 20.0)
    for seed in range(12):
        res = ground_state(_cubic(0.5), grid, seed=seed)
        assert res.classification == "scalar_first", seed
        assert res.action == pytest.approx(SCALAR_LEVEL, rel=1e-7)


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


@pytest.mark.parametrize("grid", [Grid(1, 256, 20.0), Grid(2, 32, 10.0)], ids=["1d", "2d"])
def test_ground_state_is_the_lowest_of_its_starts_run_in_turn(grid):
    # the result is, bit for bit, the lowest of the three flows run one
    # after another
    params = SystemParams(p=1.5, beta=2.0, omega1=1.0, omega2=1.0)
    starts = [
        minimize_on(ConstraintSpec.nehari(), params, grid, init=gaussian_init(grid, params, mode=mode, seed=3 + idx))
        for idx, mode in enumerate(("first", "second", "both"))
    ]
    lowest = min(starts, key=lambda res: res.action)
    res = ground_state(params, grid, seed=3)
    assert (res.action, res.iterations, res.classification) == (
        lowest.action,
        lowest.iterations,
        lowest.classification,
    )
    assert np.array_equal(res.minimizer.components, lowest.minimizer.components)


def test_ground_state_starts_no_thread(monkeypatch):
    # the starts run in turn on the calling thread, at every dimension
    def refuse(self):
        raise AssertionError(f"ground_state started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    grid = Grid(2, 32, 10.0)
    res = ground_state(SystemParams(p=1.5, beta=2.0, omega1=1.0, omega2=1.0), grid, seed=3)
    assert res.residual < 1e-8


_ZERO_START_ERRORS = [
    (ConstraintSpec.nehari(), 1.5, "Nehari projection needs F(U) > 0"),
    (ConstraintSpec.weighted_sphere(3.0), 1.5, "cannot project the zero field onto a mass sphere"),
    (ConstraintSpec.product_spheres(2.0, 1.0), 1.5, "cannot project a vanishing component onto a mass sphere"),
    (ConstraintSpec.product_spheres(2.0, 0.0), 1.5, "cannot project a vanishing component onto a mass sphere"),
    (ConstraintSpec.equal_spheres(2.0), 1.5, "cannot project a vanishing component onto a mass sphere"),
    (ConstraintSpec.nehari_set(), 1.5, "the two-sided Nehari projection needs both components nonzero"),
    (ConstraintSpec.pohozaev(), 4.0, "Pohozaev projection needs F(U) > 0"),
]


def test_scalar_start_holds_one_component(transform_calls, traced_peak):
    # a first start's flow holds no array for its absent component, so its
    # peak is about half of a both start's
    grid = Grid(2, 128, 20.0)
    params = SystemParams(p=1.5, beta=3.0, omega1=1.0, omega2=1.0)
    peaks = {}
    for mode in ("first", "both"):
        init = gaussian_init(grid, params, mode=mode, seed=4)
        peaks[mode] = traced_peak(lambda: minimize_on(ConstraintSpec.nehari(), params, grid, init=init))
    assert peaks["first"] <= 0.65 * peaks["both"]
    # an all-zero start holds one zero row too, and its first projection
    # fails as it did when the flow held both, for every constraint kind
    small = Grid(1, 64, 10.0)
    for constraint, p, message in _ZERO_START_ERRORS:
        params = SystemParams(p=p, beta=1.0, omega1=1.0, omega2=1.0)
        transform_calls.clear()
        with pytest.raises(ConstraintError, match=re.escape(message) + "$"):
            minimize_on(constraint, params, small, init=FieldPair(small, np.zeros(64), np.zeros(64)))
        assert [c for c in transform_calls if c.name == "rfft"] == [(1, 1, *small.shape)]


# the flow's memory budget, (dim, p, constraint kind, start mode): two-row
# starts at every branch of the rates on a 2d grid, the 3d grid at the
# exponents whose Nehari problem has decaying minimizers (p < 3 there; no
# constraint admits p = 3 or 4 in 3d), the weighted sphere at p = 1.5, and
# one-row starts
_BUDGET_CASES = [
    *((2, p, "nehari", "both") for p in (1.5, 2.0, 3.0, 4.0)),
    (2, 1.5, "weighted_sphere", "both"),
    *((3, p, "nehari", "both") for p in (1.5, 2.0)),
    *((dim, p, "nehari", "first") for dim in (2, 3) for p in (1.5, 2.0)),
]
_BUDGET_GRIDS = {2: (2, 128, 20.0), 3: (3, 32, 12.0)}


@pytest.mark.parametrize(
    "dim, p, kind, mode", _BUDGET_CASES, ids=[f"{d}d-p{p:g}-{k}-{m}" for d, p, k, m in _BUDGET_CASES]
)
def test_flow_holds_at_most_five_stacks(dim, p, kind, mode, traced_peak):
    # the flow releases each array once it is done with it and forms its
    # temporaries over arrays it owns. At its peak, in a trial's projection,
    # it holds the state's, the gradient's and the trial's half spectra, the
    # trial's field and two rows of its moduli or their powers; in the
    # gradient, the state's half spectrum and field, the moduli, one root
    # and the cross term. That is about 5.2 real (2, *shape) stacks, and 3.1
    # for a one-row start
    grid = Grid(*_BUDGET_GRIDS[dim])
    params = SystemParams(p=p, beta=3.0, omega1=1.0, omega2=1.0)
    constraint = ConstraintSpec.nehari() if kind == "nehari" else ConstraintSpec.weighted_sphere(3.0)
    init = gaussian_init(grid, params, mode=mode, seed=4)
    # the grid's cached spectral weights are not the flow's own
    grid.half_k2, grid.half_weights
    stack = np.zeros((2,) + grid.shape).nbytes
    budget = 5.25 if mode == "both" else 3.2
    assert traced_peak(lambda: minimize_on(constraint, params, grid, init=init)) <= budget * stack


def test_flow_telemetry(grid_1d):
    res = minimize_on(ConstraintSpec.weighted_sphere(4.0), _cubic(1.0), grid_1d)
    assert isinstance(res.residual_history, np.ndarray)
    assert res.residual_history.dtype == np.float64
    assert res.residual_history.shape == (res.iterations,)
    assert res.residual_history[-1] == res.residual
    assert (res.residual_history[:-1] >= 1e-8).all()
    assert type(res.rejected_trials) is int and res.rejected_trials >= 0
    # the start and one objective per accepted step
    assert len(res.history) == res.iterations


@pytest.mark.parametrize("grid", [Grid(1, 256, 20.0), Grid(2, 32, 10.0)], ids=["1d", "2d"])
@pytest.mark.parametrize("phase", [0.0, 0.7])
@pytest.mark.parametrize("mode", ["both", "first", "second"])
def test_flow_transform_budget(grid, phase, mode, transform_calls):
    # the flow holds the populated components as one stacked state, with
    # one real row each for a real start and two for a complex one, and
    # transforms it with the real pair only: one forward transform per
    # iteration (and one of the start), one inverse transform per
    # projection trial (the start's, then one per accepted or rejected
    # step). A scalar start holds and transforms its one component only
    params = SystemParams(p=2.0, beta=1.0, omega1=1.0, omega2=1.0)
    init = gaussian_init(grid, params, mode=mode, seed=2)
    init = FieldPair(grid, *(np.exp(1j * phase) * init.components))
    transform_calls.clear()
    res = minimize_on(ConstraintSpec.nehari(), params, grid, init=init)
    held = 2 if mode == "both" else 1
    rows = 1 if phase == 0.0 else 2
    half = (*grid.shape[:-1], grid.points_per_axis // 2 + 1)
    forward = [c for c in transform_calls if c.name in ("rfft", "rfftn")]
    inverse = [c for c in transform_calls if c.name in ("irfft", "irfftn")]
    assert len(forward) + len(inverse) == len(transform_calls)
    assert forward == [(held, rows, *grid.shape)] * (1 + res.iterations)
    assert inverse == [(held, rows, *half)] * (res.iterations + res.rejected_trials)
    assert res.minimizer.components.imag.any() == (rows == 2)
    if mode != "both":
        assert not res.minimizer.components[1 if mode == "first" else 0].any()


_PHASE_GRIDS = (Grid(1, 256, 16.0), Grid(2, 32, 10.0))


def _smooth_real_start(grid, seed):
    # two Gaussian bumps per component at random centers, widths and heights
    rng = np.random.default_rng(seed)

    def component():
        f = np.zeros(grid.shape)
        for _ in range(2):
            center = rng.uniform(-1.5, 1.5, grid.dim)
            width, height = rng.uniform(0.8, 2.0), rng.uniform(0.3, 1.5)
            r2 = sum((x - c) ** 2 for x, c in zip(np.ix_(*grid.axes), center))
            f = f + height * np.exp(-r2 / (2.0 * width**2))
        return f

    return FieldPair(grid, component(), component())


@settings(deadline=None, max_examples=40)
@given(
    dim=st.sampled_from([1, 2]),
    kind=st.sampled_from(["nehari", "weighted_sphere", "equal_spheres", "product_spheres", "pinned"]),
    p=st.sampled_from([1.5, 2.0, 3.0]),
    beta=st.floats(0.0, 3.0),
    size=st.floats(0.5, 4.0),
    phase=st.floats(0.1, 6.2),
    both=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_flow_commutes_with_phases(dim, kind, p, beta, size, phase, both, seed):
    # the flow acts on real and imaginary parts alike, so a start times
    # e^{i phase} (in one or both components) runs the real start's flow up
    # to roundoff. Near convergence the line search accepts or rejects a
    # step on an objective change of a few ulps, so roundoff may flip a
    # trial and move the minimizer by about the last step; a 1e-16 jitter of
    # the real start does the same. The flows are run to 1e-10, where such
    # a flip moves the minimizer by less than 1e-10 in the H norm.
    grid = _PHASE_GRIDS[dim - 1]
    params = SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0)
    constraint = {
        "nehari": ConstraintSpec.nehari(),
        "weighted_sphere": ConstraintSpec.weighted_sphere(2.0 * size),
        "equal_spheres": ConstraintSpec.equal_spheres(size),
        "product_spheres": ConstraintSpec.product_spheres(size, 0.4 * size),
        "pinned": ConstraintSpec.product_spheres(size, 0.0),
    }[kind]
    assume(kind == "nehari" or params.criticality(dim) == "subcritical")
    start = _smooth_real_start(grid, seed)
    rotate = np.exp(1j * phase)
    phased = FieldPair(grid, rotate * start.c1, rotate * start.c2 if both else start.c2)
    options = dict(tol=1e-10, max_iter=1500)
    try:
        real = minimize_on(constraint, params, grid, init=start, **options)
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            minimize_on(constraint, params, grid, init=phased, **options)
        return
    turned = minimize_on(constraint, params, grid, init=phased, **options)
    assert not (real.minimizer.c1.imag.any() or real.minimizer.c2.imag.any())
    # a different iteration count comes with a differently decided trial
    assert turned.iterations == real.iterations or turned.rejected_trials != real.rejected_trials
    assert turned.action == pytest.approx(real.action, rel=1e-12, abs=0)
    expected = FieldPair(
        grid, rotate * real.minimizer.c1, rotate * real.minimizer.c2 if both else real.minimizer.c2
    )
    scale = math.sqrt(h1_norm_sq(real.minimizer, params))
    assert h1_distance(turned.minimizer, expected, params) <= 1e-10 * scale


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("phase", [0.0, 0.7], ids=["real", "complex"])
@settings(deadline=None, max_examples=8)
@given(
    kind=st.sampled_from(["nehari", "weighted_sphere"]),
    p=st.sampled_from([1.5, 2.0, 3.0]),
    beta=st.floats(0.0, 3.0),
    omegas=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)).filter(lambda w: w[0] != w[1]),
    populated=st.sampled_from(["both", "first"]),
    seed=st.integers(0, 10_000),
)
def test_flow_mirrors_with_its_components(dim, kind, p, beta, omegas, phase, populated, seed):
    # every step of the flow treats the two components alike, so the start
    # (b, a) with omega1 and omega2 swapped runs the mirror of (a, b)'s
    # flow bit for bit, for real starts and complex ones alike. With b = 0
    # this mirrors a first start's one held row onto a second start's,
    # and the distinct frequencies catch a row that reads the other
    # component's. Product spheres and nehari_set are left out: the
    # former's residual subtracts the two projections in order, and the
    # latter's scalings solve for t1 first, so neither is symmetric at
    # roundoff.
    grid = _PHASE_GRIDS[dim - 1]
    params = SystemParams(p=p, beta=beta, omega1=omegas[0], omega2=omegas[1])
    mirror = SystemParams(p=p, beta=beta, omega1=omegas[1], omega2=omegas[0])
    assume(kind == "nehari" or params.criticality(dim) == "subcritical")
    constraint = ConstraintSpec.nehari() if kind == "nehari" else ConstraintSpec.weighted_sphere(2.0)
    start = _smooth_real_start(grid, seed)
    a = np.exp(1j * phase) * start.c1
    b = start.c2 if populated == "both" else np.zeros(grid.shape)
    options = dict(tol=1e-10, max_iter=400)
    try:
        res = minimize_on(constraint, params, grid, init=FieldPair(grid, a, b), **options)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError) as mirrored:
            minimize_on(constraint, mirror, grid, init=FieldPair(grid, b, a), **options)
        assert str(mirrored.value) == str(exc)
        return
    flipped = minimize_on(constraint, mirror, grid, init=FieldPair(grid, b, a), **options)
    assert flipped.minimizer.components.tobytes() == res.minimizer.components[::-1].tobytes()
    assert flipped.iterations == res.iterations
    assert flipped.rejected_trials == res.rejected_trials
    assert flipped.history.tobytes() == res.history.tobytes()
    assert flipped.residual_history.tobytes() == res.residual_history.tobytes()
    assert flipped.action == res.action
    assert flipped.multipliers == res.multipliers


def test_history_is_monotone(grid_1d):
    res = minimize_on(ConstraintSpec.nehari(), _cubic(1.0), grid_1d)
    slack = 1e-12 * max(1.0, abs(res.value))
    assert (np.diff(res.history) <= slack).all()


def test_flow_stops_when_its_residual_stalls():
    # this Pohozaev flow's residual levels off at 1.638e-8, above its
    # tolerance: the last fall by a factor (1 - 1e-6) is at iteration 33,
    # so the stall stop ends it 1000 iterations later instead of after
    # the default 200000
    with pytest.raises(ConvergenceError, match=r"stalled at relative residual 1\.638e-08 .* after 1033 iterations"):
        minimize_on(ConstraintSpec.pohozaev(), SystemParams(4.0, 0.5, 1.0, 1.3), Grid(1, 256, 16.0))


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
    # nor the Pohozaev set at the energy-critical p = n/(n - 2) = 3 in 3d,
    # where a flow only stalls
    with pytest.raises(ConstraintError, match=re.escape("p=3.0 is not below n/(n - 2) = 3 in dimension 3")):
        minimize_on(ConstraintSpec.pohozaev(), beyond, g3)


def test_constraint_spec_validation():
    with pytest.raises(ValueError):
        ConstraintSpec.weighted_sphere(-1.0)
    with pytest.raises(ValueError):
        ConstraintSpec.product_spheres(0.0, 1.0)
    with pytest.raises(ValueError):
        ConstraintSpec.product_spheres(1.0, -1.0)
    assert ConstraintSpec.equal_spheres(2.0).delta2 == 2.0
    # non-finite sizes are refused up front, naming the value
    for make, value in (
        (ConstraintSpec.weighted_sphere, math.inf),
        (ConstraintSpec.weighted_sphere, math.nan),
        (lambda v: ConstraintSpec.product_spheres(1.0, v), math.inf),
        (lambda v: ConstraintSpec.product_spheres(1.0, v), math.nan),
        (lambda v: ConstraintSpec.product_spheres(v, 0.0), math.inf),
        (lambda v: ConstraintSpec.product_spheres(v, 1.0), math.nan),
        (ConstraintSpec.equal_spheres, math.inf),
        (ConstraintSpec.equal_spheres, math.nan),
    ):
        with pytest.raises(ValueError, match=str(value)):
            make(value)
    # a size is a real number: a string or a bool is refused by name
    for make, key in (
        (lambda: ConstraintSpec.weighted_sphere("3"), "gamma"),
        (lambda: ConstraintSpec.weighted_sphere(True), "gamma"),
        (lambda: ConstraintSpec.product_spheres("1", 1.0), "delta1"),
        (lambda: ConstraintSpec.product_spheres(1.0, True), "delta2"),
        (lambda: ConstraintSpec.product_spheres(1.0, "0"), "delta2"),
        (lambda: ConstraintSpec.equal_spheres(True), "delta1"),
    ):
        with pytest.raises(ValueError, match=key):
            make()
    assert ConstraintSpec.product_spheres(np.float32(2.0), 0).delta2 == 0.0
    # so is a flow's tolerance
    for tol in ("1e-8", True):
        with pytest.raises(ValueError, match="tol"):
            minimize_on(ConstraintSpec.nehari(), _cubic(1.0), Grid(1, 64, 10.0), tol=tol)


def test_a_constraint_spec_built_directly_holds_what_its_factory_would():
    # the dataclass checks itself: a kind outside the table, a size its
    # kind's factory does not read, and a size its rule refuses are refused
    # by name, and the factories only name their kind
    for kind, sizes, key in (
        ("bogus", {}, "kind"),
        ("weighted_sphere", {"gamma": True}, "gamma"),
        ("weighted_sphere", {}, "gamma"),
        ("weighted_sphere", {"gamma": 1.0, "delta2": 1.0}, "delta2"),
        ("product_spheres", {"delta1": 1.0, "delta2": -1.0}, "delta2"),
        ("product_spheres", {"delta1": "1", "delta2": 0.0}, "delta1"),
        ("equal_spheres", {"delta1": 1.0, "delta2": 2.0}, "delta2"),
        ("equal_spheres", {"delta1": 1.0, "delta2": True}, "delta2"),
        ("nehari", {"gamma": 1.0}, "gamma"),
        ("pohozaev", {"delta1": 1.0}, "delta1"),
        ("nehari_set", {"delta2": 0.0}, "delta2"),
    ):
        with pytest.raises(ValueError, match=key):
            ConstraintSpec(kind, **sizes)
    built = (
        (ConstraintSpec("weighted_sphere", gamma=3), ConstraintSpec.weighted_sphere(3.0)),
        (ConstraintSpec("product_spheres", delta1=2, delta2=0), ConstraintSpec.product_spheres(2.0, 0.0)),
        (ConstraintSpec("equal_spheres", delta1=2), ConstraintSpec.equal_spheres(2.0)),
        (ConstraintSpec("equal_spheres", delta1=2, delta2=2.0), ConstraintSpec.equal_spheres(2.0)),
        (ConstraintSpec("nehari"), ConstraintSpec.nehari()),
    )
    for direct, made in built:
        assert direct == made and direct.describe() == made.describe()
        assert all(type(getattr(direct, key)) in (float, type(None)) for key in ("gamma", "delta1", "delta2"))
        assert dataclasses.replace(made) == made
    assert ConstraintSpec.product_spheres(2.0, 0.0).pinned


def _assert_on_two_sided_set(pair, params):
    both, (t1, t2) = nehari_set_project(pair, params)
    assert t1 > 0 and t2 > 0
    p1, p2 = partial_pairings(both, params)
    assert max(abs(p1), abs(p2)) < 1e-12 * h1_norm_sq(both, params)
    return t1, t2


@settings(deadline=None, max_examples=60)
@given(
    p=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
    beta=st.floats(0.0, 3.0),
    pitchfork=st.booleans(),
    seed=st.integers(0, 10_000),
    kappa=st.floats(0.2, 5.0),
    theta=st.floats(-np.pi, np.pi),
)
def test_projection_helpers_land_on_sets(grid_1d_wide, p, beta, pitchfork, seed, kappa, theta):
    # at beta = p - 1 the scaling of a proportional pair is a triple root of
    # the two-sided scaling equation (a pitchfork)
    if pitchfork:
        beta = p - 1.0
    params = SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0)
    pair = smooth_pair(grid_1d_wide, seed, width=1.5)
    on_ray, t = nehari_project(pair, params)
    assert t > 0
    assert abs(nehari_pairing(on_ray, params)) < 1e-12 * h1_norm_sq(on_ray, params)

    # the two-sided set meets the scaling orbit of every pair with
    # proportional components
    _assert_on_two_sided_set(FieldPair(grid_1d_wide, pair.c1, kappa * np.exp(1j * theta) * pair.c1), params)

    if p != 2.0:
        # and for p != 2 that of every pair: the scaling equation changes
        # sign between t2/t1 -> 0 and t2/t1 -> inf
        _assert_on_two_sided_set(pair, params)
    else:
        # at p = 2 the two-sided scalings solve a linear system in
        # s_j = t_j^2, so the raw pair reaches the set exactly when its
        # solution is positive
        zero = np.zeros(grid_1d_wide.shape)
        parts = (FieldPair(grid_1d_wide, pair.c1, zero), FieldPair(grid_1d_wide, zero, pair.c2))
        a = [h1_norm_sq(u, params) for u in parts]
        b = [4.0 * coupling_F(u, params) for u in parts]
        c = 2.0 * coupling_F(pair, params) - 0.5 * (b[0] + b[1])
        s = np.linalg.solve([[b[0], c], [c, b[1]]], a)
        if s.min() > 1e-9 * s.max():
            t1, t2 = _assert_on_two_sided_set(pair, params)
            assert (t1**2, t2**2) == pytest.approx(tuple(s), rel=1e-9)
        elif s.min() < -1e-9 * s.max():
            with pytest.raises(ConstraintError):
                nehari_set_project(pair, params)

    if params.criticality(1) == "supercritical":
        on_zero, tz = pohozaev_project(pair, params)
        assert tz > 0
        assert abs(virial_R(on_zero, params)) < 1e-12 * h1_norm_sq(on_zero, params)
    else:
        with pytest.raises(ConstraintError):
            pohozaev_project(pair, params)


def test_nehari_projections_refuse_an_exponent_without_minimizers():
    # p = 3.5 is not below n/(n-2) = 3 in 3d, where minimize_on refuses the
    # Nehari kinds; the projections validate the same way, before scaling
    params = SystemParams(p=3.5, beta=0.5, omega1=1.0, omega2=1.0)
    pair = smooth_pair(Grid(3, 16, 6.0), 7)
    for project in (nehari_project, nehari_set_project):
        with pytest.raises(ConstraintError, match="no decaying minimizers"):
            project(pair, params)


def _width(x):
    # the bracket width at which the root search stops
    return 1e-15 + 4.0 * math.ulp(1.0) * abs(x)


_ROOT_NEAR = minimize._root_near


def _search(h, x0):
    """_root_near's root and every (x, h(x)) it evaluated."""
    seen = []

    def recorded(x):
        hx = h(x)
        seen.append((x, hx))
        return hx

    return _ROOT_NEAR(recorded, x0), seen


def _assert_brackets_a_sign_change(root, seen):
    # h vanishes at the root, or changes sign between points it was
    # evaluated at within one stopping width of it
    near = {np.sign(hx) for x, hx in seen if abs(x - root) <= _width(root)}
    assert 0.0 in near or {-1.0, 1.0} <= near


def _shape(kind, root, rate, bend, scale):
    def h(x):
        y = rate * (x - root)
        if kind == "sinh":
            return scale * math.sinh(min(max(y, -700.0), 700.0))
        if kind == "tanh":
            return scale * (math.tanh(y) + bend * 1e-3 * y)
        if kind == "cubic":
            return scale * y * (1.0 + bend * y + y * y)
        return scale * y * (1.0 + bend * math.cos(7.0 * x))

    return h


@settings(deadline=None, max_examples=400)
@given(
    kind=st.sampled_from(["sinh", "tanh", "cubic", "wavy"]),
    root=st.floats(-50.0, 50.0),
    rate=st.floats(1e-3, 1e3),
    bend=st.floats(-0.9, 0.9),
    log_scale=st.floats(-300.0, 300.0),
    offset=st.floats(-2000.0, 2000.0),
)
def test_root_search_brackets_a_sign_change(kind, root, rate, bend, log_scale, offset):
    h = _shape(kind, root, rate, bend, 10.0**log_scale)
    x, seen = _search(h, root + offset)
    _assert_brackets_a_sign_change(x, seen)
    # tanh with a negative bend has two more roots far out; every other
    # shape has one, which brentq finds to the same width
    if kind != "tanh" or bend >= 0.0:
        want = brentq(h, root - 1.0, root + 1.0, xtol=1e-15)
        assert abs(x - want) <= 2.0 * _width(want)


@settings(deadline=None, max_examples=400)
@given(
    p=st.one_of(st.sampled_from([1.5, 2.0, 3.0, 4.0]), st.floats(1.05, 6.0)),
    beta=st.floats(1e-3, 5.0),
    logs=st.lists(st.floats(-6.0, 6.0), min_size=5, max_size=5),
    warm=st.floats(-3.0, 3.0),
)
def test_root_search_on_the_nehari_scaling_equation(p, beta, logs, warm):
    # every search the two-sided projection makes, at random exponents,
    # couplings, norms and warm ratios
    searches = []

    def recorded(h, x0):
        searches.append(_search(h, x0))
        return searches[-1][0]

    a1, a2, b1, b2, cross = (math.exp(v) for v in logs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimize, "_root_near", recorded)
        # at p = 2 the scaling orbit may miss the set, with no bracket
        with contextlib.suppress(ConstraintError):
            minimize._nehari_set_scalings(p, a1, a2, b1, b2, beta * cross, (1.0, math.exp(warm)))
    for root, seen in searches:
        _assert_brackets_a_sign_change(root, seen)


def test_root_search_refuses_nan_and_a_missed_orbit():
    def nan_inside(x):
        return math.nan if 0.0 < x < 1.0 else x - 0.5

    # the probes from 2 bracket [0, 1], whose midpoint is NaN
    with pytest.raises(ConstraintError, match="NaN"):
        minimize._root_near(nan_inside, 2.0)
    with pytest.raises(ConstraintError, match="NaN"):
        minimize._root_near(lambda x: math.nan, 0.0)
    with pytest.raises(ConstraintError, match="misses"):
        minimize._root_near(lambda x: x * x + 1.0, 0.0)


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
