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
from scipy.fft import fftn, ifftn

from .core import FieldPair, Grid, SystemParams, gradient_norm_sq, l2_norm_sq
from .errors import BoundaryDecayError
from .functionals import _rates, coupling_F, variance

__all__ = [
    "EvolveConfig",
    "TrajectoryLog",
    "VirialCheck",
    "step_strang",
    "evolve",
    "virial_series",
]


@dataclass(frozen=True)
class EvolveConfig:
    """Evolution run settings.

    snapshot_stride = 0 keeps no field snapshots. blowup_guard stops the run
    once ||grad Phi|| exceeds that multiple of its initial value; on a fixed
    periodic grid the gradient of a unit-mass field cannot exceed
    k_max sqrt(mass), so a focusing run saturates rather than overflows and
    the guard is the meaningful stopping criterion.
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
    the gradient guard tripped or the field stopped being finite."""

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

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for row in zip(self.times, self.mass1, self.mass2, self.energy, self.variance, self.gradnorm):
            lines.append(",".join("%.17g" % v for v in row))
        return "\n".join(lines) + "\n"

    def final_state(self) -> FieldPair | None:
        return self.snapshots[-1][1] if self.snapshots else None


def _kinetic(mult, c1, c2):
    """Apply the Fourier multiplier mult (a kinetic propagator) to both
    components."""
    return ifftn(mult * fftn(c1)), ifftn(mult * fftn(c2))


def _rotate(c1, c2, params, dt):
    """The exact nonlinear substep: rotate each phase by dt A_j."""
    r1, r2 = _rates(c1, c2, params)
    return np.exp(1j * dt * r1) * c1, np.exp(1j * dt * r2) * c2


def step_strang(pair: FieldPair, params: SystemParams, dt: float) -> FieldPair:
    """One kinetic-half / nonlinear / kinetic-half step. dt may be negative
    (the step is the exact inverse of the forward one)."""
    half = np.exp(-0.5j * dt * pair.grid.k2)
    c1, c2 = _kinetic(half, pair.c1, pair.c2)
    c1, c2 = _kinetic(half, *_rotate(c1, c2, params, dt))
    return FieldPair(pair.grid, c1, c2, copy=False, check=False)


def evolve(pair: FieldPair, params: SystemParams, config: EvolveConfig) -> TrajectoryLog:
    """Run Strang splitting from pair for round(t_end/dt) steps, sampling
    observables every conservation_check_stride steps (plus the endpoints).

    Equivalent to composing step_strang, but adjacent kinetic half-steps
    are fused except where an observable, a snapshot, or the guard needs
    the state at a whole-step time."""
    grid = pair.grid
    dt = config.dt
    n_steps = int(round(config.t_end / dt))
    if n_steps < 1:
        raise ValueError(f"t_end={config.t_end} covers no whole step of dt={dt}")
    half = np.exp(-0.5j * dt * grid.k2)
    full = np.exp(-1j * dt * grid.k2)
    c1 = np.array(pair.c1, dtype=complex)
    c2 = np.array(pair.c2, dtype=complex)

    rows = []
    snapshots = []
    blowup_time = None
    aborted = False

    def sample(t, u1, u2):
        state = FieldPair(grid, u1, u2, copy=False, check=False)
        try:
            var = variance(state)
        except BoundaryDecayError:
            var = math.nan
        grad = gradient_norm_sq(state)
        rows.append(
            (
                t,
                l2_norm_sq(grid, u1),
                l2_norm_sq(grid, u2),
                0.5 * grad - coupling_F(state, params),
                var,
                math.sqrt(grad),
            )
        )
        return rows[-1][5]

    guard_level = config.blowup_guard * max(sample(0.0, c1, c2), 1e-300)
    if config.snapshot_stride:
        snapshots.append((0.0, FieldPair(grid, c1, c2)))

    # stage at the mid-kinetic point: between observation boundaries the
    # trailing and leading kinetic halves of consecutive steps merge into
    # whole ones, so an interior step costs one transform round trip, not
    # two, and deposits half the roundoff in the otherwise exactly
    # conserved masses
    c1, c2 = _kinetic(half, c1, c2)
    for s in range(1, n_steps + 1):
        c1, c2 = _rotate(c1, c2, params, dt)
        sampling = s % config.conservation_check_stride == 0 or s == n_steps
        snapping = config.snapshot_stride and s % config.snapshot_stride == 0
        if not (sampling or snapping):
            c1, c2 = _kinetic(full, c1, c2)
            continue
        c1, c2 = _kinetic(half, c1, c2)
        t = s * dt
        if sampling:
            if not (np.isfinite(c1).all() and np.isfinite(c2).all()):
                blowup_time = t
                aborted = True
                break
            gn = sample(t, c1, c2)
            if gn > guard_level:
                blowup_time = t
                aborted = True
                break
        if snapping:
            snapshots.append((t, FieldPair(grid, c1, c2)))
        if s < n_steps:
            c1, c2 = _kinetic(half, c1, c2)

    # the terminal state is always retrievable, snapshot stride or not
    t_last = t if aborted else n_steps * dt
    if not snapshots or snapshots[-1][0] != t_last:
        snapshots.append((t_last, FieldPair(grid, c1, c2)))

    data = np.asarray(rows, dtype=float)
    return TrajectoryLog(
        grid=grid,
        params=params,
        times=data[:, 0],
        mass1=data[:, 1],
        mass2=data[:, 2],
        energy=data[:, 3],
        variance=data[:, 4],
        gradnorm=data[:, 5],
        snapshots=snapshots,
        blowup_time=blowup_time,
        aborted=aborted,
    )


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
    n = log.grid.dim
    p = log.params.p
    g_sq = log.gradnorm**2
    f_val = 0.5 * g_sq - log.energy
    r_val = g_sq - n * (p - 1.0) * f_val
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
