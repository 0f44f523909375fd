"""Time evolution by Strang splitting.

The coupled flow i dphi_j/dt + Lap phi_j + (|phi_j|^(2p-2)
+ beta |phi_k|^p |phi_j|^(p-2)) phi_j = 0 splits into an exactly solvable
kinetic part (diagonal in Fourier space) and an exactly solvable nonlinear
part: the nonlinearity only rotates phases, since it preserves |phi_j|
pointwise. Both substeps are unitary, so the particle numbers are conserved
to roundoff regardless of dt, and the composition kinetic-half / nonlinear /
kinetic-half is time-reversible and second-order accurate in dt.

Energy is not exactly conserved by the splitting; its drift, sampled every
conservation_check_stride steps, is the standard accuracy diagnostic and
scales like dt^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    FieldPair,
    Grid,
    SystemParams,
    _density,
    _fft,
    _ifft,
    _integral,
    _spectral_gradient_norm_sq,
    same_grid,
)
from .errors import BoundaryDecayError
from .functionals import _energy, _potential, _rates, _variance, _virial

__all__ = [
    "EvolveConfig",
    "TrajectoryLog",
    "VirialCheck",
    "step_strang",
    "evolve",
    "virial_series",
]


# longer runs are refused up front: even on the smallest grids they would
# take hours
_MAX_STEPS = 10**9


@dataclass(frozen=True)
class EvolveConfig:
    """Evolution run settings.

    snapshot_stride = 0 keeps no field snapshots. blowup_guard stops the run
    once ||grad Phi|| exceeds that multiple of its initial value; on a fixed
    periodic grid the gradient of a unit-mass field cannot exceed
    k_max sqrt(mass), so a focusing run saturates rather than overflows and
    the guard is the meaningful stopping criterion. t_end / dt may not
    exceed 10**9 steps.
    """

    dt: float
    t_end: float
    snapshot_stride: int = 0
    conservation_check_stride: int = 100
    blowup_guard: float = 1e6

    def __post_init__(self):
        if self.dt == 0:
            raise ValueError("dt must be nonzero")
        if not (math.isfinite(self.dt) and math.isfinite(self.t_end / self.dt)):
            raise ValueError(f"dt={self.dt} and t_end={self.t_end} must give a finite step count")
        if self.t_end / self.dt <= 0:
            raise ValueError("t_end must have the same sign as dt")
        if self.t_end / self.dt > _MAX_STEPS:
            raise ValueError(
                f"t_end/dt = {self.t_end / self.dt:.6g} steps exceeds the ceiling of {_MAX_STEPS}"
            )
        if self.conservation_check_stride < 1:
            raise ValueError("conservation_check_stride must be >= 1")
        if self.snapshot_stride < 0:
            raise ValueError("snapshot_stride must be >= 0")
        if not self.blowup_guard > 1:
            raise ValueError("blowup_guard must exceed 1")


@dataclass
class TrajectoryLog:
    """Sampled observables along one run. variance is nan at samples where
    the field no longer decays at the box boundary (the moment arrays stop
    being meaningful there). blowup_time is the first sampled time at which
    the gradient guard tripped, or the first sampled or snapshotted time at
    which the field stopped being finite; the last snapshot is always the
    latest of those states that is finite. steps is the number of Strang
    steps taken and transform_calls the number of transform calls they
    made, each over both components (and over every member of a batch).
    companions holds the logs of the further members of a batched run."""

    CSV_HEADER = "t,mass1,mass2,energy,variance,gradnorm"

    grid: Grid
    params: SystemParams
    times: np.ndarray
    mass1: np.ndarray
    mass2: np.ndarray
    energy: np.ndarray
    variance: np.ndarray
    gradnorm: np.ndarray
    snapshots: list = field(default_factory=list)
    blowup_time: float | None = None
    aborted: bool = False
    steps: int = 0
    transform_calls: int = 0
    companions: tuple = ()

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for row in zip(self.times, self.mass1, self.mass2, self.energy, self.variance, self.gradnorm):
            lines.append(",".join("%.17g" % v for v in row))
        return "\n".join(lines) + "\n"

    def final_state(self) -> FieldPair | None:
        return self.snapshots[-1][1] if self.snapshots else None


def _kinetic(grid, mult, U):
    """Apply the Fourier multiplier mult (a kinetic propagator) to every
    component of the stacked state U, in one transform pair."""
    S = _fft(grid, U)
    # mult first, as in every product with a propagator here: with fused
    # multiply-adds a complex product is not symmetric in its operands
    np.multiply(mult, S, out=S)
    return _ifft(grid, S)


def _rotate(grid, U, params, dt):
    """The exact nonlinear substep: rotate each phase by dt A_j. U is a
    stacked (2, *shape) pair or a batch (E, 2, *shape) of them."""
    m = _density(U).reshape(-1, 2, grid.total_points)
    theta = np.empty_like(m)
    for j, rate in enumerate(_rates(m[:, 0], m[:, 1], params)):
        np.multiply(dt, rate, out=theta[:, j])
    # cos and sin written into the two halves of the phase factor cost
    # about 2/3 of a complex exp of i dt A_j; one call each serves every
    # member and component
    phase = np.empty(m.shape, dtype=complex)
    np.cos(theta, out=phase.real)
    np.sin(theta, out=phase.imag)
    phase = phase.reshape(U.shape)
    phase *= U
    return phase


def step_strang(pair: FieldPair, params: SystemParams, dt: float) -> FieldPair:
    """One kinetic-half / nonlinear / kinetic-half step. dt may be negative
    (the step is the exact inverse of the forward one)."""
    grid = pair.grid
    half = np.exp(-0.5j * dt * grid.k2)
    U = _kinetic(grid, half, _rotate(grid, _kinetic(grid, half, np.stack(pair.components)), params, dt))
    return FieldPair(grid, U[0], U[1], copy=False, check=False)


def evolve(
    pair: FieldPair, params: SystemParams, config: EvolveConfig, *, companions=()
) -> TrajectoryLog:
    """Run Strang splitting from pair for round(t_end/dt) steps, sampling
    observables every conservation_check_stride steps (plus the endpoints).

    Equivalent to composing step_strang, but adjacent kinetic half-steps
    are fused except where an observable, a snapshot, or the guard needs
    the state at a whole-step time. Both components are held as one
    (2, *shape) array, so each transform call serves both.

    companions are further initial pairs on pair's grid, run under the same
    schedule as one (E, 2, *shape) batch, so that each transform call and
    each cos/sin call serves every member. Their logs come back, in order,
    as the returned log's companions; each member's log is bit for bit the
    one a separate run returns. A member that trips the guard or stops
    being finite leaves the batch and the others run on."""
    members = (pair, *companions)
    for other in members[1:]:
        same_grid(pair, other)
    U = np.stack([member.components for member in members])
    # a lone run is transformed as its (2, *shape) stack
    log, *others = _evolve_stack(pair.grid, params, config, U if len(members) > 1 else U[0])
    log.companions = tuple(others)
    return log


class _Run:
    """One member of an evolving stack: its samples, snapshots, guard level
    and latest finite observed state, and the (steps, transform calls) at
    which it stopped."""

    def __init__(self, grid, params, config, U, S):
        self.grid, self.params = grid, params
        self.rows = []
        self.snapshots = []
        self.blowup_time = None
        self.guard_level = config.blowup_guard * max(self.sample(0.0, U, S), 1e-300)
        if config.snapshot_stride:
            self.snapshots.append((0.0, FieldPair(grid, U[0], U[1])))
        # the latest observed whole-step state known to be finite: the
        # terminal state, also when the run is aborted because a later one
        # is not
        self.last = (0.0, U)

    def sample(self, t, U, S):
        """Log the observables of the whole-step state U, whose spectrum S
        is one unitary kinetic multiplier away from U's, so that
        ||grad U||^2 is its Parseval sum; returns ||grad U||. One density
        serves the masses, the variance and F."""
        grid, params = self.grid, self.params
        m = _density(U)
        try:
            var = _variance(grid, m[0] + m[1])
        except BoundaryDecayError:
            var = math.nan
        grad = _spectral_gradient_norm_sq(grid, S)
        self.rows.append(
            (
                t,
                _integral(grid, m[0]),
                _integral(grid, m[1]),
                _energy(grad, _potential(grid, m[0], m[1], params)),
                var,
                math.sqrt(grad),
            )
        )
        return self.rows[-1][5]

    def observe(self, t, U, S, sampling, snapping) -> bool:
        """Take the whole-step state U at time t; False when the run stops
        there, because U is not finite or its gradient passed the guard."""
        if not np.isfinite(U).all():
            self.blowup_time = t
            return False
        self.last = (t, U)
        if sampling and self.sample(t, U, S) > self.guard_level:
            self.blowup_time = t
            return False
        if snapping:
            self.snapshots.append((t, FieldPair(self.grid, U[0], U[1])))
        return True

    def log(self) -> TrajectoryLog:
        # the terminal state is always retrievable, snapshot stride or not
        t_last, U = self.last
        steps, calls = self.end
        if not self.snapshots or self.snapshots[-1][0] != t_last:
            self.snapshots.append((t_last, FieldPair(self.grid, U[0], U[1])))
        data = np.asarray(self.rows, dtype=float)
        return TrajectoryLog(
            grid=self.grid,
            params=self.params,
            times=data[:, 0],
            mass1=data[:, 1],
            mass2=data[:, 2],
            energy=data[:, 3],
            variance=data[:, 4],
            gradnorm=data[:, 5],
            snapshots=self.snapshots,
            blowup_time=self.blowup_time,
            aborted=self.blowup_time is not None,
            steps=steps,
            transform_calls=calls,
        )


def _evolve_stack(grid, params, config, U):
    """evolve for every member of U, a stacked (2, *shape) pair or a batch
    (E, 2, *shape) of them; one TrajectoryLog per member. A member that
    stops is dropped from the live stack, so the transforms and the
    rotation run over the members still going."""
    dt = config.dt
    n_steps = int(round(config.t_end / dt))
    if n_steps < 1:
        raise ValueError(f"t_end={config.t_end} covers no whole step of dt={dt}")
    if not np.isfinite(U).all():
        raise ValueError("the initial state must be finite")
    half = np.exp(-0.5j * dt * grid.k2)
    full = np.exp(-1j * dt * grid.k2)

    def members(A):
        # the (2, *shape) view of each member of a stack
        return A.reshape((-1, 2) + grid.shape)

    S = _fft(grid, U)
    runs = live = [_Run(grid, params, config, u, s) for u, s in zip(members(U), members(S))]

    # stage at the mid-kinetic point: between observation boundaries the
    # trailing and leading kinetic halves of consecutive steps merge into
    # whole ones, so an interior step costs one transform round trip, not
    # two, and deposits half the roundoff in the otherwise exactly
    # conserved masses
    U = _ifft(grid, half * S)
    calls = 2
    for s in range(1, n_steps + 1):
        U = _rotate(grid, U, params, dt)
        sampling = s % config.conservation_check_stride == 0 or s == n_steps
        snapping = config.snapshot_stride and s % config.snapshot_stride == 0
        if not (sampling or snapping):
            U = _kinetic(grid, full, U)
            calls += 2
            continue
        # the whole-step state and the next mid-kinetic state both come
        # from this one spectrum
        S = _fft(grid, U)
        U = _ifft(grid, half * S)
        calls += 2
        t = s * dt
        going = [run.observe(t, u, sp, sampling, snapping) for run, u, sp in zip(live, members(U), members(S))]
        if not all(going):
            for run, on in zip(live, going):
                if not on:
                    run.end = (s, calls)
            live = [run for run, on in zip(live, going) if on]
            if not live:
                break
            U, S = members(U)[going], members(S)[going]
        if s < n_steps:
            U = _ifft(grid, np.multiply(full, S, out=S))
            calls += 1
    for run in live:
        run.end = (s, calls)
    return [run.log() for run in runs]


@dataclass(frozen=True)
class VirialCheck:
    """Centered second difference of the variance against eight times the
    virial functional along a run. R is recovered from the sampled gradient
    norm and energy through F = ||grad||^2/2 - E."""

    times: np.ndarray
    second_derivative: np.ndarray
    expected: np.ndarray
    max_residual: float


def virial_series(log: TrajectoryLog, *, window: tuple | None = None) -> VirialCheck:
    """Check d^2/dt^2 int |x|^2 rho = 8 R on the sampled trajectory.

    Uses interior sample points with uniform spacing and finite variance;
    max_residual is relative to the largest |8R| in the window.
    """
    t = log.times
    if len(t) < 3:
        raise ValueError("need at least three samples for a second difference")
    h = t[1] - t[0]
    if not np.allclose(np.diff(t), h, rtol=1e-9, atol=1e-12):
        raise ValueError("virial check needs uniformly spaced samples")
    g_sq = log.gradnorm**2
    r_val = _virial(g_sq, 0.5 * g_sq - log.energy, log.grid.dim, log.params.p)
    v_dd = (log.variance[2:] - 2.0 * log.variance[1:-1] + log.variance[:-2]) / h**2
    t_in = t[1:-1]
    expected = 8.0 * r_val[1:-1]
    keep = np.isfinite(v_dd)
    if window is not None:
        keep &= (t_in >= window[0]) & (t_in <= window[1])
    if not keep.any():
        raise ValueError("no usable samples in the requested window")
    scale = np.abs(expected[keep]).max()
    max_residual = float(np.abs(v_dd[keep] - expected[keep]).max() / max(scale, 1e-300))
    return VirialCheck(
        times=t_in[keep],
        second_derivative=v_dd[keep],
        expected=expected[keep],
        max_residual=max_residual,
    )
