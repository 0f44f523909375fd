import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnls_lab import (
    EvolveConfig,
    Family,
    FieldPair,
    Grid,
    ScalingParams,
    SolitonSpec,
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
from cnls_lab.dynamics import TrajectoryLog
from cnls_lab.errors import BoundaryDecayError, GridMismatchError
from cnls_lab.stability import perturbation_pair

from conftest import smooth_pair


def _member(params, grid, family=Family.SCALAR_FIRST):
    return make_member(SolitonSpec.for_family(family, params), params, grid)


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


def test_standing_wave_phase_rotation(grid_1d, cubic):
    # the member evolves as exp(i omega t) u; compare at t = 1
    u = _member(cubic, grid_1d)
    log = evolve(u, cubic, EvolveConfig(dt=1e-3, t_end=1.0))
    final = log.final_state()
    exact = FieldPair(grid_1d, np.exp(1j) * u.c1, np.exp(1j) * u.c2, copy=False)
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


def test_transform_budget(grid_1d, cubic, transform_calls):
    n, stride, snap = 50, 7, 5
    config = EvolveConfig(dt=1e-3, t_end=n * 1e-3, conservation_check_stride=stride, snapshot_stride=snap)
    log = evolve(_member(cubic, grid_1d), cubic, config)
    observed = sum(1 for s in range(1, n + 1) if s % stride == 0 or s % snap == 0 or s == n)
    # 2 calls to start (the t = 0 spectrum, the first half step), 2 per
    # interior step, 3 per sampled or snapshotted step, less the half step
    # after the last one; every call transforms both components at once
    assert log.steps == n
    assert log.transform_calls == len(transform_calls) == 2 + 2 * (n - observed) + 3 * observed - 1
    assert set(transform_calls) == {(2,) + grid_1d.shape}
    # the counts stay out of the trajectory file
    assert {len(row.split(",")) for row in log.to_csv().splitlines()} == {6}


_PROPERTY_GRIDS = (Grid(1, 256, 10.0), Grid(2, 32, 8.0))


def _unit_peak(pair):
    # unit peak keeps the nonlinear phase dt A_j small, so exp(i dt A_j)
    # is evaluated to roundoff
    return (1.0 / max(np.abs(pair.c1).max(), np.abs(pair.c2).max())) * pair


@settings(deadline=None, max_examples=30)
@given(
    grid=st.sampled_from(_PROPERTY_GRIDS),
    p=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
    beta=st.floats(0.0, 3.0),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 12),
    stride=st.integers(1, 5),
    snap=st.integers(0, 4),
    dt=st.floats(1e-4, 1e-2),
)
def test_evolve_equals_composed_steps(grid, p, beta, seed, k, stride, snap, dt):
    params = SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0)
    state = _unit_peak(smooth_pair(grid, seed))
    config = EvolveConfig(dt=dt, t_end=k * dt, conservation_check_stride=stride, snapshot_stride=snap)
    log = evolve(state, params, config)
    stepped = state
    for _ in range(k):
        stepped = step_strang(stepped, params, dt)
    final = log.final_state()
    peak = max(np.abs(stepped.c1).max(), np.abs(stepped.c2).max())
    assert max(np.abs(final.c1 - stepped.c1).max(), np.abs(final.c2 - stepped.c2).max()) < 1e-12 * peak


@settings(deadline=None, max_examples=30)
@given(
    grid=st.sampled_from(_PROPERTY_GRIDS),
    p=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
    beta=st.floats(0.0, 3.0),
    seed=st.integers(0, 10_000),
    width=st.sampled_from([0.8, 2.0]),
    stride=st.integers(1, 4),
)
def test_logged_rows_match_the_functionals(grid, p, beta, seed, width, stride):
    params = SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0)
    state = _unit_peak(smooth_pair(grid, seed, width=width))
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
    overflow_at=st.none() | st.integers(0, 3),
    k=st.integers(1, 12),
    stride=st.integers(1, 5),
    snap=st.integers(0, 4),
    dt=st.floats(1e-4, 1e-2),
)
def test_batch_members_equal_separate_runs(grid, p, beta, seeds, widths, overflow_at, k, stride, snap, dt):
    params = SystemParams(p=p, beta=beta, omega1=1.0, omega2=1.0)
    members = [_unit_peak(smooth_pair(grid, seed, width=w)) for seed, w in zip(seeds, widths)]
    if overflow_at is not None:
        # a member whose density overflows: it stops being finite at the
        # first observed step, while the others run on to t_end
        members.insert(min(overflow_at, len(members)), 1e155 * members[0])
    config = EvolveConfig(dt=dt, t_end=k * dt, conservation_check_stride=stride, snapshot_stride=snap)
    with np.errstate(all="ignore"):
        batch = evolve(members[0], params, config, companions=members[1:])
        alone = [evolve(member, params, config) for member in members]
    logs = [batch, *batch.companions]
    assert len(logs) == len(members)
    for batched, single in zip(logs, alone):
        _assert_same_log(batched, single)
    if overflow_at is not None:
        assert sum(log.aborted for log in logs) == 1


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


def test_batch_transform_budget(grid_1d, cubic, transform_calls):
    n, stride, snap = 50, 7, 5
    config = EvolveConfig(dt=1e-3, t_end=n * 1e-3, conservation_check_stride=stride, snapshot_stride=snap)
    u = _member(cubic, grid_1d)
    batch = evolve(u, cubic, config, companions=[0.5 * u, 0.9 * u])
    observed = sum(1 for s in range(1, n + 1) if s % stride == 0 or s % snap == 0 or s == n)
    # the budget of one run, every call over the whole (E, 2, *shape) batch
    assert len(transform_calls) == 2 + 2 * (n - observed) + 3 * observed - 1
    assert set(transform_calls) == {(3, 2) + grid_1d.shape}
    assert {log.transform_calls for log in (batch, *batch.companions)} == {len(transform_calls)}
    transform_calls.clear()
    # an interior step, fused kinetic parts included, is one pair of calls
    evolve(u, cubic, EvolveConfig(dt=1e-3, t_end=n * 1e-3, conservation_check_stride=n), companions=[0.5 * u])
    assert len(transform_calls) == 2 + 2 * (n - 1) + 3 - 1
    assert set(transform_calls) == {(2, 2) + grid_1d.shape}


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


def test_guard_aborts_collapsing_run():
    g = Grid(1, 1024, 20.0)
    params = SystemParams(p=4.0, beta=0.0, omega1=1.0, omega2=1.0)
    datum = scale_pair(_member(params, g), ScalingParams(mu=1.1**0.5, lam=1.1))
    log = evolve(datum, params, EvolveConfig(dt=2e-4, t_end=2.0, conservation_check_stride=1, blowup_guard=10.0))
    assert log.aborted
    assert log.blowup_time is not None and log.blowup_time < 1.0
    assert log.final_state() is not None
    # every step up to the abort was sampled; the aborting one made no
    # further half step
    assert log.steps == round(log.blowup_time / 2e-4)
    assert log.transform_calls == 2 + 3 * log.steps - 1


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
    bad = FieldPair(g, np.full(g.shape, np.nan), u, check=False)
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


def test_virial_series_rejects_nonuniform_times(grid_1d, cubic):
    state = _member(cubic, grid_1d)
    log = evolve(state, cubic, EvolveConfig(dt=1e-3, t_end=0.1, conservation_check_stride=10))
    bad = dataclasses.replace(log, times=np.concatenate([log.times[:1], log.times[1:] ** 1.01]))
    with pytest.raises(ValueError):
        virial_series(bad)
    short = dataclasses.replace(log, times=log.times[:2])
    with pytest.raises(ValueError):
        virial_series(short)


def test_trajectory_csv_round_trip(grid_1d, cubic):
    state = _member(cubic, grid_1d)
    log = evolve(state, cubic, EvolveConfig(dt=1e-3, t_end=0.2))
    text = log.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == TrajectoryLog.CSV_HEADER
    parsed = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    assert parsed[0, 1] == pytest.approx(log.mass1[0])
    assert parsed[-1, 0] == pytest.approx(log.times[-1])
