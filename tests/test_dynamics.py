import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnls_lab import (
    EvolveConfig,
    Family,
    FieldPair,
    Grid,
    ScalingParams,
    SystemParams,
    coupling_F,
    energy_E,
    evolve,
    gradient_norm_sq,
    h1_distance,
    l2_norm_sq,
    make_member,
    scale_pair,
    step_strang,
    variance,
    virial_series,
)
from cnls_lab.dynamics import TrajectoryLog, _unit_phase
from cnls_lab.errors import BoundaryDecayError, GridMismatchError
from cnls_lab.stability import perturbation_pair

from conftest import smooth_pair


def _member(params, grid, family=Family.SCALAR_FIRST):
    return make_member(family, params, grid)


def test_config_validation():
    with pytest.raises(ValueError):
        EvolveConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        EvolveConfig(dt=1e-3, t_end=-1.0)
    with pytest.raises(ValueError):
        EvolveConfig(dt=1e-3, t_end=1.0, blowup_guard=0.5)
    with pytest.raises(ValueError):
        EvolveConfig(dt=1e-3, t_end=1.0, conservation_check_stride=0)
    # non-finite times, or a step count that overflows, are refused up front
    for dt, t_end in ((1e-3, np.inf), (1e-3, np.nan), (np.nan, 1.0), (np.inf, 1.0), (1e-300, 1e300)):
        with pytest.raises(ValueError):
            EvolveConfig(dt=dt, t_end=t_end)
    # a finite but absurd step count would run for ever
    with pytest.raises(ValueError, match="1e\\+303 steps"):
        EvolveConfig(dt=1e-3, t_end=1e300)
    EvolveConfig(dt=1e-3, t_end=1e6)
    # a stride of 0.5 would snapshot every step and a nan one sample only
    # the endpoints, so the strides are integers, as the step counter is;
    # an infinite guard never trips
    for key, values in (
        ("snapshot_stride", (-1, 0.5, 2.0, np.nan, np.inf, True, "2")),
        ("conservation_check_stride", (0, 0.5, 1.0, np.nan, np.inf, True, "5")),
        ("blowup_guard", (np.nan, np.inf)),
    ):
        for value in values:
            with pytest.raises(ValueError, match=key):
                EvolveConfig(dt=1e-3, t_end=1.0, **{key: value})
    # the times and the guard are real numbers, refused by name when they
    # are strings or bools
    for key, value in (("dt", "1e-3"), ("dt", True), ("t_end", "1.0"), ("t_end", True)):
        with pytest.raises(ValueError, match=key):
            EvolveConfig(**{"dt": 1e-3, "t_end": 1.0, key: value})
    for value in ("5", True):
        with pytest.raises(ValueError, match="blowup_guard"):
            EvolveConfig(dt=1e-3, t_end=1.0, blowup_guard=value)
    EvolveConfig(dt=np.float32(1e-3), t_end=1, blowup_guard=np.int64(5))
    config = EvolveConfig(dt=1e-3, t_end=1.0, snapshot_stride=np.int64(2), conservation_check_stride=np.int32(5))
    assert (config.snapshot_stride, config.conservation_check_stride) == (2, 5)


def test_standing_wave_phase_rotation(grid_1d, cubic):
    # the member evolves as exp(i omega t) u; compare at t = 1
    u = _member(cubic, grid_1d)
    log = evolve(u, cubic, EvolveConfig(dt=1e-3, t_end=1.0))
    final = log.final_state()
    exact = FieldPair(grid_1d, np.exp(1j) * u.c1, np.exp(1j) * u.c2)
    err = h1_distance(final, exact, cubic)
    assert err < 5e-6


def test_mass_conservation_is_exact(grid_1d):
    params = SystemParams(p=2.0, beta=1.0, omega1=1.0, omega2=1.0)
    state = _member(params, grid_1d) + 0.05 * perturbation_pair(grid_1d, params, seed=1)
    log = evolve(state, params, EvolveConfig(dt=1e-3, t_end=2.0))
    drift1 = np.abs(log.mass1 - log.mass1[0]).max() / log.mass1[0]
    drift2 = np.abs(log.mass2 - log.mass2[0]).max() / max(log.mass2[0], 1e-300)
    # both substeps are unitary, so only FFT roundoff accumulates
    assert drift1 < 1e-12
    assert drift2 < 1e-12


def test_energy_drift_second_order(grid_1d):
    params = SystemParams(p=2.0, beta=1.0, omega1=1.0, omega2=1.0)
    state = _member(params, grid_1d) + 0.05 * perturbation_pair(grid_1d, params, seed=1)

    def drift(dt):
        log = evolve(state, params, EvolveConfig(dt=dt, t_end=1.0, conservation_check_stride=10))
        return np.abs(log.energy - log.energy[0]).max()

    coarse, fine = drift(2e-3), drift(1e-3)
    assert coarse < 1e-6
    assert 2.5 < coarse / fine < 6.0


def test_reversibility(grid_1d, cubic):
    state = _member(cubic, grid_1d) + 0.05 * perturbation_pair(grid_1d, cubic, seed=2)
    forward = evolve(state, cubic, EvolveConfig(dt=1e-3, t_end=1.0)).final_state()
    back = evolve(forward, cubic, EvolveConfig(dt=-1e-3, t_end=-1.0)).final_state()
    assert h1_distance(back, state, cubic) < 1e-10


@settings(deadline=None, max_examples=40)
@given(
    p=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
    beta=st.floats(0.0, 3.0),
    seed=st.integers(0, 10_000),
    dt=st.floats(1e-4, 1e-2) | st.floats(-1e-2, -1e-4),
)
def test_step_strang_inverts_itself(grid_1d, p, beta, seed, dt):
    params = SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0)
    raw = smooth_pair(grid_1d, seed)
    # unit peak keeps the nonlinear phase dt A_j small, so exp(i dt A_j)
    # is evaluated to roundoff
    state = (1.0 / max(np.abs(raw.c1).max(), np.abs(raw.c2).max())) * raw
    back = step_strang(step_strang(state, params, dt), params, -dt)
    assert max(np.abs(back.c1 - state.c1).max(), np.abs(back.c2 - state.c2).max()) < 1e-12
    for before, after in ((state.c1, back.c1), (state.c2, back.c2)):
        m0 = l2_norm_sq(grid_1d, before)
        assert abs(l2_norm_sq(grid_1d, after) - m0) < 1e-12 * m0


_EPS = np.finfo(float).eps


@settings(deadline=None, max_examples=200)
@given(
    theta=st.floats(-1e6, 1e6)
    | st.sampled_from([0.0, -0.0, np.pi, -np.pi, 5e-324, np.nan, np.inf, -np.inf])
)
def test_tangent_phase_matches_cos_and_sin(theta):
    with np.errstate(invalid="ignore"):
        phase = _unit_phase(np.array([0.5 * theta]))[0]
    c, s = phase.real, phase.imag
    if not np.isfinite(theta):
        assert np.isnan(c) and np.isnan(s)
        return
    # libm's cos and sin are within half an eps, the tangent form within
    # one and a half
    assert abs(c - math.cos(theta)) <= 2 * _EPS
    assert abs(s - math.sin(theta)) <= 2 * _EPS
    assert abs(c * c + s * s - 1.0) <= 4 * _EPS


def _observed(n, stride, snap):
    # the sampled or snapshotted steps, the last step always among them
    return sum(1 for s in range(1, n + 1) if s % stride == 0 or (snap and s % snap == 0) or s == n)


def _check_calls(transform_calls, n, observed, members, rows, shape):
    # 1 call to start (the t = 0 spectrum), 2 per step and 1 for the last
    # step's whole-step state: an observed step before the last inverts its
    # trailing half step and the next step's whole step as one (2E, r,
    # *shape) stack, which stands in for that next step's inverse. Every
    # other call transforms the (E, r, *shape) stack of the populated rows
    assert len(transform_calls) == 2 * n + 2
    assert transform_calls.count((2 * members, rows) + shape) == observed - 1
    assert transform_calls.count((members, rows) + shape) == 2 * n + 3 - observed


def _check_budget(grid, params, state, rows, transform_calls):
    n, stride, snap = 50, 7, 5
    config = EvolveConfig(dt=1e-3, t_end=n * 1e-3, conservation_check_stride=stride, snapshot_stride=snap)
    log = evolve(state, params, config)
    assert log.steps == n
    assert log.transform_calls == len(transform_calls)
    _check_calls(transform_calls, n, _observed(n, stride, snap), 1, rows, grid.shape)
    # the snapshots and the terminal state are whole pairs
    assert {pair.components.shape for _, pair in log.snapshots} == {(2,) + grid.shape}
    # the counts stay out of the trajectory file
    assert {len(row.split(",")) for row in log.to_csv().splitlines()} == {6}


def test_transform_budget(grid_1d, cubic, transform_calls):
    # a scalar_first member's zero second component is not transformed
    _check_budget(grid_1d, cubic, _member(cubic, grid_1d), 1, transform_calls)


def _phased_second(pair):
    # a vector pair whose components are no longer equal bit for bit
    return FieldPair(pair.grid, pair.c1, np.exp(0.5j) * pair.c2)


def _with_subnormal_second(pair):
    # one entry of the least positive double in the trivial component
    c2 = pair.c2.copy()
    c2[len(c2) // 2] = 5e-324
    return FieldPair(pair.grid, pair.c1, c2)


@pytest.mark.parametrize(
    "family, edit, rows, points",
    [
        ("scalar_second", lambda u: u, 1, 1024),
        # a synchronized pair (u, u) is stepped as one row
        ("vector_b", lambda u: u, 1, 1024),
        ("vector_b", _phased_second, 2, 1024),
        # a single subnormal entry makes the second component populated
        ("scalar_first", _with_subnormal_second, 2, 1024),
        # an all-zero state is stepped as one zero row
        ("scalar_first", lambda u: 0.0 * u, 1, 1024),
        # the rule holds on the smallest grids too
        ("scalar_first", lambda u: u, 1, 4),
    ],
    ids=["scalar_second", "vector_b", "vector_b_phased", "subnormal_second", "zero_state",
         "scalar_first_4_points"],
)
def test_transform_budget_covers_the_populated_components(transform_calls, family, edit, rows, points):
    params = SystemParams(p=2.0, beta=1.0, omega1=1.0, omega2=1.0)
    grid = Grid(1, points, 20.0)
    _check_budget(grid, params, edit(_member(params, grid, Family(family))), rows, transform_calls)


_PROPERTY_GRIDS = (Grid(1, 256, 10.0), Grid(2, 32, 8.0))


def _unit_peak(pair):
    # unit peak keeps the nonlinear phase dt A_j small, so exp(i dt A_j)
    # is evaluated to roundoff
    return (1.0 / max(np.abs(pair.c1).max(), np.abs(pair.c2).max())) * pair


def _zeroed(pair, component):
    # pair with the given component (0 or 1) set exactly to zero
    if component is None:
        return pair
    rows = pair.components.copy()
    rows[component] = 0.0
    return FieldPair(pair.grid, *rows)


@settings(deadline=None, max_examples=40)
@given(
    grid=st.sampled_from(_PROPERTY_GRIDS),
    p=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
    beta=st.floats(0.0, 3.0),
    seed=st.integers(0, 10_000),
    zero=st.none() | st.sampled_from([0, 1]),
    guard=st.sampled_from([1e6]) | st.floats(1.0 + 1e-12, 1.0 + 1e-6),
    k=st.integers(1, 12),
    stride=st.integers(1, 5),
    snap=st.integers(0, 4),
    dt=st.floats(1e-4, 1e-2),
)
def test_evolve_equals_composed_steps(grid, p, beta, seed, zero, guard, k, stride, snap, dt):
    params = SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0)
    state = _zeroed(_unit_peak(smooth_pair(grid, seed)), zero)
    config = EvolveConfig(
        dt=dt, t_end=k * dt, conservation_check_stride=stride, snapshot_stride=snap, blowup_guard=guard
    )
    log = evolve(state, params, config)
    # step_strang steps both components, a trivial one included; a run the
    # guard stopped ends at the state that tripped it
    stepped = [state]
    for _ in range(log.steps):
        stepped.append(step_strang(stepped[-1], params, dt))
    assert log.snapshots[-1][0] == log.steps * dt
    for t, snap_pair in log.snapshots:
        ref = stepped[round(t / dt)]
        peak = np.abs(ref.components).max()
        assert np.abs(snap_pair.components - ref.components).max() < 1e-12 * peak
        if zero is not None:
            # the trivial component stays exactly zero on both paths
            assert not snap_pair.components[zero].any() and not ref.components[zero].any()
    if zero is not None:
        assert not (log.mass1, log.mass2)[zero].any()


@settings(deadline=None, max_examples=30)
@given(
    grid=st.sampled_from(_PROPERTY_GRIDS),
    p=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
    beta=st.floats(0.0, 3.0),
    seed=st.integers(0, 10_000),
    width=st.sampled_from([0.8, 2.0]),
    stride=st.integers(1, 4),
    populated=st.sampled_from(["first", "second", "both"]),
)
def test_logged_rows_match_the_functionals(grid, p, beta, seed, width, stride, populated):
    # a state with one exactly zero component is evolved as one row, and
    # the absent row must log what the functionals give
    params = SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0)
    zero = {"first": 1, "second": 0, "both": None}[populated]
    state = _zeroed(_unit_peak(smooth_pair(grid, seed, width=width)), zero)
    dt = 5e-3
    config = EvolveConfig(dt=dt, t_end=3 * stride * dt, conservation_check_stride=stride, snapshot_stride=stride)
    log = evolve(state, params, config)
    assert [t for t, _ in log.snapshots] == list(log.times)
    for i, (_, snap) in enumerate(log.snapshots):
        grad = gradient_norm_sq(snap)
        f_val = coupling_F(snap, params)
        assert log.mass1[i] == pytest.approx(l2_norm_sq(grid, snap.c1), rel=1e-12, abs=0)
        assert log.mass2[i] == pytest.approx(l2_norm_sq(grid, snap.c2), rel=1e-12, abs=0)
        assert log.gradnorm[i] ** 2 == pytest.approx(grad, rel=1e-12, abs=0)
        # E = grad/2 - F can cancel to near zero, so its error is measured
        # against the size of its two terms
        assert abs(log.energy[i] - energy_E(snap, params)) <= 1e-12 * (0.5 * grad + f_val)
        try:
            var = variance(snap)
        except BoundaryDecayError:
            assert np.isnan(log.variance[i])
        else:
            assert log.variance[i] == pytest.approx(var, rel=1e-12, abs=0)


def _assert_same_log(batched, alone):
    for name in ("times", "mass1", "mass2", "energy", "variance", "gradnorm"):
        assert np.array_equal(getattr(batched, name), getattr(alone, name), equal_nan=True), name
    assert [t for t, _ in batched.snapshots] == [t for t, _ in alone.snapshots]
    for (_, b), (_, a) in zip(batched.snapshots, alone.snapshots):
        assert np.array_equal(b.c1, a.c1) and np.array_equal(b.c2, a.c2)
    assert (batched.blowup_time, batched.aborted) == (alone.blowup_time, alone.aborted)
    assert (batched.steps, batched.transform_calls) == (alone.steps, alone.transform_calls)


@settings(deadline=None, max_examples=40)
@given(
    grid=st.sampled_from(_PROPERTY_GRIDS),
    p=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
    beta=st.sampled_from([0.0, 3.0]) | st.floats(0.0, 3.0),
    seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=3),
    widths=st.lists(st.sampled_from([0.8, 2.0]), min_size=3, max_size=3),
    zero=st.none() | st.tuples(st.sampled_from([0, 1]), st.sampled_from(["first", "all"])),
    overflow_at=st.none() | st.integers(0, 3),
    guard=st.sampled_from([1e6]) | st.floats(1.0 + 1e-12, 1.0 + 1e-6),
    k=st.integers(1, 12),
    stride=st.integers(1, 5),
    snap=st.integers(0, 4),
    dt=st.floats(1e-4, 1e-2),
)
def test_batch_members_equal_separate_runs(
    grid, p, beta, seeds, widths, zero, overflow_at, guard, k, stride, snap, dt
):
    params = SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0)
    members = [_unit_peak(smooth_pair(grid, seed, width=w)) for seed, w in zip(seeds, widths)]
    if zero is not None:
        # an exactly zero component in the first member, which alone steps
        # one row, or in every member, so that the batch steps one row too
        component, which = zero
        count = 1 if which == "first" else len(members)
        members[:count] = [_zeroed(member, component) for member in members[:count]]
    if overflow_at is not None:
        # a member whose density overflows: it stops being finite at the
        # first observed step, while the others run on to t_end unless a
        # tight guard stops them
        overflow_at = min(overflow_at, len(members))
        members.insert(overflow_at, 1e155 * members[0])
    config = EvolveConfig(
        dt=dt, t_end=k * dt, conservation_check_stride=stride, snapshot_stride=snap, blowup_guard=guard
    )
    with np.errstate(all="ignore"):
        batch = evolve(members[0], params, config, companions=members[1:])
        alone = [evolve(member, params, config) for member in members]
    logs = [batch, *batch.companions]
    assert len(logs) == len(members)
    for batched, single in zip(logs, alone):
        _assert_same_log(batched, single)
    if overflow_at is not None:
        assert logs[overflow_at].aborted
        if guard == 1e6:
            assert sum(log.aborted for log in logs) == 1


@settings(deadline=None, max_examples=40)
@given(
    grid=st.sampled_from(_PROPERTY_GRIDS),
    p=st.sampled_from([1.5, 2.0, 2.5, 3.0, 4.0]),
    beta=st.floats(0.0, 3.0),
    seeds=st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
    width=st.sampled_from([0.8, 2.0]),
    # None: a guard that trips mid-run
    guard=st.sampled_from([None, 1e6]) | st.floats(1.0 + 1e-12, 1.0 + 1e-6),
    k=st.integers(2, 12),
    stride=st.integers(1, 3),
    snap=st.integers(0, 4),
    dt=st.floats(1e-4, 1e-2),
    last=st.booleans(),
)
def test_synchronized_member_keeps_its_bits_in_a_two_row_batch(
    grid, p, beta, seeds, width, guard, k, stride, snap, dt, last
):
    # a synchronized pair (u, u) alone is stepped as one row; batched with
    # a companion whose components differ, the batch steps two rows, and
    # the member must log the same bits either way
    params = SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0)
    u = _unit_peak(smooth_pair(grid, seeds[0], width=width)).c1
    member = FieldPair(grid, u, u)
    companion = _unit_peak(smooth_pair(grid, seeds[1]))
    config = EvolveConfig(dt=dt, t_end=k * dt, conservation_check_stride=stride, snapshot_stride=snap)
    if guard is None:
        # halfway to the largest gradient ratio of the free run, in the
        # direction of time in which the gradient grows
        for config in (config, dataclasses.replace(config, dt=-dt, t_end=-k * dt)):
            free = evolve(member, params, config)
            ratio = free.gradnorm.max() / free.gradnorm[0]
            if ratio > 1.0 + 1e-12:
                break
        guard = 1.0 + 0.5 * (ratio - 1.0) if ratio > 1.0 + 1e-12 else 1e6
    config = dataclasses.replace(config, blowup_guard=guard)
    members = [companion, member] if last else [member, companion]
    batch = evolve(members[0], params, config, companions=members[1:])
    batched = (batch, *batch.companions)[members.index(member)]
    alone = evolve(member, params, config)
    _assert_same_log(batched, alone)
    assert np.array_equal(alone.mass1, alone.mass2)
    for _, pair in alone.snapshots:
        assert np.array_equal(pair.c1, pair.c2)


@settings(deadline=None, max_examples=30)
@given(
    grid=st.sampled_from(_PROPERTY_GRIDS),
    p=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
    beta=st.floats(0.0, 3.0),
    seed=st.integers(0, 10_000),
    synchronized=st.booleans(),
    k=st.integers(2, 12),
    # a stride past k observes the last step only
    stride=st.integers(2, 13),
    snap=st.integers(0, 5),
    dt=st.floats(1e-4, 1e-2),
)
def test_observing_a_step_leaves_the_trajectory_bit_for_bit(grid, p, beta, seed, synchronized, k, stride, snap, dt):
    # an observed step takes the next step's pre-rotation state from the
    # stacked inverse of its whole-step state, an unobserved one from an
    # inverse of its own; both must give the same bits
    params = SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0)
    pair = _unit_peak(smooth_pair(grid, seed))
    if synchronized:
        pair = FieldPair(grid, pair.c1, pair.c1)
    config = EvolveConfig(dt=dt, t_end=k * dt, conservation_check_stride=1, snapshot_stride=1)
    every = evolve(pair, params, config)
    some = evolve(pair, params, dataclasses.replace(config, conservation_check_stride=stride, snapshot_stride=snap))
    kept = np.isin(every.times, some.times)
    for name in ("times", "mass1", "mass2", "energy", "variance", "gradnorm"):
        assert np.array_equal(getattr(every, name)[kept], getattr(some, name), equal_nan=True), name
    states = dict(every.snapshots)
    for t, state in some.snapshots:
        assert np.array_equal(states[t].components, state.components)


@pytest.mark.parametrize(
    "grid", [Grid(1, 2, 3.0), Grid(1, 4, 3.0), Grid(2, 2, 3.0), Grid(1, 8, 3.0), Grid(3, 2, 3.0)]
)
def test_one_row_member_keeps_its_bits_in_a_two_row_batch(grid):
    # a lone one-row run must log what the same member logs in a batch
    # that steps both rows, down to grids of a few points
    params = SystemParams(p=3.0, beta=1.0, omega1=1.0, omega2=1.0)
    rng = np.random.default_rng(0)
    config = EvolveConfig(dt=1e-3, t_end=3e-3, conservation_check_stride=1, snapshot_stride=1)
    for _ in range(10):
        a, b = (0.3 * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)) for _ in "ab")
        member = FieldPair(grid, a, np.zeros(grid.shape))
        alone = evolve(member, params, config)
        batch = evolve(member, params, config, companions=[FieldPair(grid, a, b)])
        _assert_same_log(batch, alone)


def test_batch_member_tripping_the_guard_leaves_the_others_running():
    g = Grid(1, 256, 20.0)
    params = SystemParams(p=4.0, beta=0.0, omega1=1.0, omega2=1.0)
    member = _member(params, g)
    collapsing = scale_pair(member, ScalingParams(mu=1.1**0.5, lam=1.1))
    config = EvolveConfig(dt=1e-3, t_end=1.0, conservation_check_stride=5, snapshot_stride=20, blowup_guard=3.0)
    batch = evolve(member, params, config, companions=[collapsing, member])
    logs = [batch, *batch.companions]
    # the collapsing member trips mid-run; the standing waves run to t_end
    assert logs[1].aborted and 0.1 < logs[1].blowup_time < 0.9
    assert not logs[0].aborted and not logs[2].aborted and logs[0].steps == 1000
    for batched, member_ in zip(logs, (member, collapsing, member)):
        _assert_same_log(batched, evolve(member_, params, config))


def _check_batch_budget(grid, params, u, rows, transform_calls):
    n, stride, snap = 50, 7, 5
    config = EvolveConfig(dt=1e-3, t_end=n * 1e-3, conservation_check_stride=stride, snapshot_stride=snap)
    batch = evolve(u, params, config, companions=[0.5 * u, 0.9 * u])
    # the budget of one run, every call over the whole batch of the
    # populated components
    _check_calls(transform_calls, n, _observed(n, stride, snap), 3, rows, grid.shape)
    assert {log.transform_calls for log in (batch, *batch.companions)} == {len(transform_calls)}
    transform_calls.clear()
    # an interior step, fused kinetic parts included, is one pair of calls
    evolve(u, params, EvolveConfig(dt=1e-3, t_end=n * 1e-3, conservation_check_stride=n), companions=[0.5 * u])
    _check_calls(transform_calls, n, 1, 2, rows, grid.shape)


def test_batch_transform_budget(grid_1d, cubic, transform_calls):
    _check_batch_budget(grid_1d, cubic, _member(cubic, grid_1d), 1, transform_calls)


def test_batch_transform_budget_of_vector_members(grid_1d, transform_calls):
    params = SystemParams(p=2.0, beta=1.0, omega1=1.0, omega2=1.0)
    vector = _member(params, grid_1d, Family.VECTOR_B)
    # synchronized members, scaled alike, are stepped as one row
    _check_batch_budget(grid_1d, params, vector, 1, transform_calls)
    transform_calls.clear()
    _check_batch_budget(grid_1d, params, _phased_second(vector), 2, transform_calls)
    transform_calls.clear()
    # a component populated in one member is stepped for every member, and
    # a synchronized member batched with one that is not takes two rows
    config = EvolveConfig(dt=1e-3, t_end=0.01)
    for first in (_member(params, grid_1d), _phased_second(vector)):
        evolve(first, params, config, companions=[vector])
        assert set(transform_calls) == {(2, 2) + grid_1d.shape}
        transform_calls.clear()


@pytest.mark.parametrize("beta", [0.5, 3.0])
def test_batched_sweep_conserves_every_member_mass(grid_1d, beta):
    params = SystemParams(p=2.0, beta=beta, omega1=1.0, omega2=1.0)
    pert = perturbation_pair(grid_1d, params, seed=0)
    config = EvolveConfig(dt=1e-3, t_end=2.0, snapshot_stride=500, conservation_check_stride=500)
    for family in (Family.SCALAR_FIRST, Family.VECTOR_B):
        base = _member(params, grid_1d, family)
        first, *rest = (base + eps * pert for eps in (0.0, 1e-3, 1e-2))
        batch = evolve(first, params, config, companions=rest)
        for log in (batch, *batch.companions):
            assert not log.aborted
            total = log.mass1[0] + log.mass2[0]
            for mass in (log.mass1, log.mass2):
                scale = mass[0] if mass[0] > 0 else total
                assert np.abs(mass - mass[0]).max() <= 1e-12 * scale


def test_companions_must_share_the_grid(cubic):
    u = _member(cubic, Grid(1, 256, 10.0))
    other = _member(cubic, Grid(1, 128, 10.0))
    with pytest.raises(GridMismatchError):
        evolve(u, cubic, EvolveConfig(dt=1e-3, t_end=0.01), companions=[other])


def test_single_step_matches_evolve(grid_1d, cubic):
    state = _member(cubic, grid_1d)
    stepped = step_strang(state, cubic, 1e-3)
    log = evolve(state, cubic, EvolveConfig(dt=1e-3, t_end=1e-3))
    assert np.abs(stepped.c1 - log.final_state().c1).max() < 1e-14


def test_snapshot_stride_and_final_state(grid_1d, cubic):
    state = _member(cubic, grid_1d)
    log = evolve(state, cubic, EvolveConfig(dt=1e-3, t_end=0.5, snapshot_stride=100))
    times = [t for t, _ in log.snapshots]
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.5)
    assert len(times) == 6  # t = 0, 0.1, ..., 0.5
    # log rows every conservation stride
    assert log.times[0] == 0.0 and log.times[-1] == pytest.approx(0.5)


def test_subquadratic_exponent_runs_finite(grid_1d):
    params = SystemParams(p=1.5, beta=1.0, omega1=1.0, omega2=1.0)
    state = _member(params, grid_1d, Family.VECTOR_B)
    log = evolve(state, params, EvolveConfig(dt=1e-3, t_end=0.2))
    assert np.isfinite(log.final_state().c1).all()
    assert not log.aborted


def test_guard_aborts_collapsing_run(transform_calls):
    g = Grid(1, 1024, 20.0)
    params = SystemParams(p=4.0, beta=0.0, omega1=1.0, omega2=1.0)
    datum = scale_pair(_member(params, g), ScalingParams(mu=1.1**0.5, lam=1.1))
    transform_calls.clear()
    log = evolve(datum, params, EvolveConfig(dt=2e-4, t_end=2.0, conservation_check_stride=1, blowup_guard=10.0))
    assert log.aborted
    assert log.blowup_time is not None and log.blowup_time < 1.0
    assert log.final_state() is not None
    # every step up to the abort was sampled, each observation's inverse
    # standing in for the next step's
    assert log.steps == round(log.blowup_time / 2e-4)
    assert log.transform_calls == 2 * log.steps + 2
    # the derived count is the count of calls made
    assert len(transform_calls) == log.transform_calls


def test_nonfinite_sample_returns_the_aborted_log():
    g = Grid(1, 64, 10.0)
    params = SystemParams(p=4.0, beta=1.0, omega1=1.0, omega2=1.0)
    u = 1e60 * np.exp(-g.axes[0] ** 2)
    datum = FieldPair(g, u, 0.5 * u)
    # the first step overflows; it is observed by a sample, by a snapshot
    # between samples, or by both
    for sample_stride, snapshot_stride in ((1, 0), (5, 1), (1, 1)):
        config = EvolveConfig(
            dt=1e-3, t_end=0.01, conservation_check_stride=sample_stride, snapshot_stride=snapshot_stride
        )
        with np.errstate(all="ignore"):
            log = evolve(datum, params, config)
        assert log.aborted and log.blowup_time == pytest.approx(1e-3)
        # the terminal snapshot is the last finite observed state, the datum
        assert [t for t, _ in log.snapshots] == [0.0]
        final = log.final_state()
        assert np.array_equal(final.c1, datum.c1) and np.array_equal(final.c2, datum.c2)
        assert log.times.tolist() == [0.0]
    # a non-finite datum is refused up front
    # the constructor refuses it, so it is wrapped as an internal stack
    bad = FieldPair._wrap(g, np.array([np.full(g.shape, np.nan), u], dtype=complex))
    with pytest.raises(ValueError, match="initial state"):
        evolve(bad, params, EvolveConfig(dt=1e-3, t_end=0.01))


def test_virial_series_on_collapse_window():
    g = Grid(1, 2048, 30.0)
    params = SystemParams(p=4.0, beta=0.0, omega1=1.0, omega2=1.0)
    datum = scale_pair(_member(params, g), ScalingParams(mu=1.1**0.5, lam=1.1))
    log = evolve(datum, params, EvolveConfig(dt=2e-4, t_end=0.3, conservation_check_stride=1))
    check = virial_series(log, window=(0.0, 0.25))
    assert check.max_residual < 0.02
    # the datum has negative virial, so the variance must be concave
    assert check.second_derivative.max() < 0.0


@settings(deadline=None, max_examples=200)
@given(
    k=st.integers(0, 8),
    n=st.integers(3, 80),
    coeffs=st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)),
    ends=st.tuples(st.integers(-5, 85), st.integers(-5, 85)),
    shift=st.sampled_from([0.0, 0.25, 0.5]),
    gap=st.none() | st.tuples(st.integers(0, 79), st.integers(1, 5)),
    backward=st.booleans(),
)
def test_virial_series_keeps_the_differences_inside_the_window(k, n, coeffs, ends, shift, gap, backward):
    # times i h with |h| = 2^-k, a run backward in time for h < 0, and a
    # quadratic variance with integer coefficients: every sample and second
    # difference is exact in binary
    h = -(2.0**-k) if backward else 2.0**-k
    t = np.arange(n) * h
    a, b, c = coeffs
    var = a + b * t + c * t * t
    if gap is not None:
        var[gap[0] : gap[0] + gap[1]] = np.nan
    ones = np.ones(n)
    log = TrajectoryLog(
        grid=Grid(1, 64, 10.0),
        params=SystemParams(p=2.0, beta=0.0, omega1=1.0, omega2=1.0),
        times=t, mass1=ones, mass2=0.0 * ones, energy=-ones, variance=var, gradnorm=ones,
    )
    # window ends between samples as well as on them
    window = sorted((e + shift) * h for e in ends)
    kept = [
        i for i in range(1, n - 1)
        if all(window[0] <= t[j] <= window[1] and np.isfinite(var[j]) for j in (i - 1, i, i + 1))
    ]
    if not kept:
        with pytest.raises(ValueError):
            virial_series(log, window=window)
        return
    check = virial_series(log, window=window)
    assert np.array_equal(check.times, t[kept])
    for step in (-h, h):
        assert ((window[0] <= check.times + step) & (check.times + step <= window[1])).all()
    assert (check.second_derivative == 2.0 * c).all()


def test_virial_series_rejects_nonuniform_times(grid_1d, cubic):
    state = _member(cubic, grid_1d)
    log = evolve(state, cubic, EvolveConfig(dt=1e-3, t_end=0.1, conservation_check_stride=10))
    bad = dataclasses.replace(log, times=np.concatenate([log.times[:1], log.times[1:] ** 1.01]))
    with pytest.raises(ValueError):
        virial_series(bad)
    short = dataclasses.replace(log, times=log.times[:2])
    with pytest.raises(ValueError):
        virial_series(short)


@pytest.mark.parametrize(
    "window, message",
    [
        (("0", 1.0), "window[0] must be a finite real number, got '0'"),
        ((True, 1.0), "window[0] must be a finite real number, got True"),
        ((0.0, math.nan), "window[1] must be a finite real number, got nan"),
        ((0.0, 1j), "window[1] must be a finite real number, got 1j"),
        (1.0, "window must be a pair (t0, t1), got 1.0"),
        ((0.0, 0.05, 0.1), "window must be a pair (t0, t1), got (0.0, 0.05, 0.1)"),
    ],
)
def test_virial_series_refuses_a_window_that_is_not_two_finite_numbers(grid_1d, cubic, window, message):
    log = evolve(_member(cubic, grid_1d), cubic, EvolveConfig(dt=1e-3, t_end=0.1, conservation_check_stride=10))
    with pytest.raises(ValueError, match=re.escape(message)):
        virial_series(log, window=window)
    # numpy ends read as the numbers they hold
    same = virial_series(log, window=np.array([0.0, 0.05]))
    assert np.array_equal(same.times, virial_series(log, window=(0.0, 0.05)).times)


def test_trajectory_csv_round_trip(grid_1d, cubic):
    state = _member(cubic, grid_1d)
    log = evolve(state, cubic, EvolveConfig(dt=1e-3, t_end=0.2))
    text = log.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == TrajectoryLog.CSV_HEADER
    parsed = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    assert parsed[0, 1] == pytest.approx(log.mass1[0])
    assert parsed[-1, 0] == pytest.approx(log.times[-1])
