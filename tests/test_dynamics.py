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
    energy_E,
    evolve,
    h1_distance,
    l2_norm_sq,
    make_member,
    scale_pair,
    step_strang,
    virial_series,
)
from cnls_lab.dynamics import TrajectoryLog
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
