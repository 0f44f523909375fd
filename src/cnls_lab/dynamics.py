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
    _check_number,
    _csv,
    _density,
    _embed,
    _fft,
    _ifft,
    _populated,
    same_grid,
)
from .functionals import _Norms, _rates, _virial

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

# runs whose live stack and kept snapshots would hold more complex values
# (2 GiB) are refused before their first step
_MAX_HELD = 2**27


@dataclass(frozen=True)
class EvolveConfig:
    """Evolution run settings.

    snapshot_stride = 0 keeps no field snapshots. blowup_guard stops the run
    once ||grad Phi|| exceeds that multiple of its initial value; on a fixed
    periodic grid the gradient of a unit-mass field cannot exceed
    k_max sqrt(mass), so a focusing run saturates rather than overflows and
    the guard is the meaningful stopping criterion; it must be finite.
    t_end / dt may not exceed 10**9 steps, and the strides are integers, not
    bools.
    """

    dt: float
    t_end: float
    snapshot_stride: int = 0
    conservation_check_stride: int = 100
    blowup_guard: float = 1e6

    def __post_init__(self):
        dt = _check_number(self.dt, "dt", "be a finite nonzero real number",
                           lambda dt: dt != 0.0 and math.isfinite(dt))
        t_end = _check_number(self.t_end, "t_end", "be a finite real number", math.isfinite)
        if t_end / dt <= 0:
            raise ValueError("t_end must have the same sign as dt")
        if t_end / dt > _MAX_STEPS:
            raise ValueError(f"t_end/dt = {t_end / dt:.6g} steps exceeds the ceiling of {_MAX_STEPS}")
        for name, least in (("conservation_check_stride", 1), ("snapshot_stride", 0)):
            _check_number(getattr(self, name), name, f"be an integer >= {least}", least.__le__, integer=True)
        _check_number(self.blowup_guard, "blowup_guard", "be finite and exceed 1",
                      lambda guard: 1.0 < guard < math.inf)


@dataclass
class TrajectoryLog:
    """Sampled observables along one run. variance is nan at samples where
    the field no longer decays at the box boundary (the moment arrays stop
    being meaningful there). blowup_time is the first sampled time at which
    the gradient guard tripped, or the first sampled or snapshotted time at
    which the field stopped being finite; the last snapshot is always the
    latest of those states that is finite. steps is the number of Strang
    steps taken, and transform_calls, derived from it, the number of
    transform calls made up to the last of them, 2 * steps + 2 whatever
    the strides: one to start, one for the first kinetic half step, and
    one forward and one inverse per step, since an observed step before
    the last inverts its whole-step state and the next step's pre-rotation
    state in one call. Each call serves the stepped rows (the populated components, or one row
    for a synchronized pair) of every live member of a batch. companions
    holds the logs of the further members of a batched run."""

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

    def _table(self) -> tuple:
        columns = (self.times, self.mass1, self.mass2, self.energy, self.variance, self.gradnorm)
        return self.CSV_HEADER, list(zip(*columns))

    def to_csv(self) -> str:
        return _csv(*self._table())

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


def _unit_phase(half):
    """e^(i theta) for the half angles half = theta/2, which it overwrites
    with tan(theta/2) = t: with q = 2/(1 + t^2), cos theta = q - 1 and
    sin theta = t q. numpy runs a vectorized float tan but a scalar libm
    cos and sin, so one tan and four arithmetic passes over contiguous
    temporaries cost less than half of the cos and sin calls; nan and inf
    angles give nan."""
    t = np.tan(half, out=half)
    q = np.square(t)
    q += 1.0
    np.divide(2.0, q, out=q)
    phase = np.empty(q.shape, dtype=complex)
    np.subtract(q, 1.0, out=phase.real)
    np.multiply(t, q, out=phase.imag)
    return phase


def _rotate(grid, U, params, dt, synchronized=False):
    """The exact nonlinear substep: rotate each phase by dt A_j. U is a
    stack (r, *shape) of r populated components, a (2, *shape) pair when
    both are, or a batch (E, r, *shape) of such stacks; one pass of each
    operation serves every member and component. synchronized marks a
    one-row stack that holds a synchronized pair (u, u)."""
    # the rates are formed in the rotation's own density, and the half
    # angles are written into them
    m = _density(U)
    half = _rates(m, params, grid.dim, synchronized=synchronized, out=m)
    phase = _unit_phase(np.multiply(0.5 * dt, half, out=half))
    phase *= U
    return phase


def step_strang(pair: FieldPair, params: SystemParams, dt: float) -> FieldPair:
    """One kinetic-half / nonlinear / kinetic-half step. dt may be negative
    (the step is the exact inverse of the forward one) but must be finite;
    a step whose result overflows raises ValueError."""
    dt = _check_number(dt, "dt", "be a finite real number", math.isfinite)
    grid = pair.grid
    half = np.exp(-0.5j * dt * grid.k2)
    U = _kinetic(grid, half, _rotate(grid, _kinetic(grid, half, pair.components), params, dt))
    return FieldPair._finite(grid, U)


def evolve(
    pair: FieldPair, params: SystemParams, config: EvolveConfig, *, companions=()
) -> TrajectoryLog:
    """Run Strang splitting from pair for round(t_end/dt) steps, sampling
    observables every conservation_check_stride steps (plus the endpoints).

    Equivalent to composing step_strang, but adjacent kinetic half-steps
    are fused except where an observable, a snapshot, or the guard needs
    the state at a whole-step time; there one inverse transform of the
    stacked half and whole kinetic steps gives both the whole-step state
    and the next step's pre-rotation state. So the loop carries only the
    spectrum in hand, and a run of n steps makes 2n + 2 transform calls,
    the count its log reports. The pair's components are evolved as one
    stack, so each transform call serves both fields. A component that
    is exactly zero (in every member of a batch) stays exactly zero under
    the Strang map, since the rotation multiplies zero and the kinetic step
    is linear, so it is left out of the stack by core._populated, the rule
    the projected flow shares: a standing wave with one trivial component,
    or an all-zero state, is stepped as one row on every grid, and an
    absent component enters the observables as exact zeros. Two populated
    components that are equal bit for bit (in every member of a batch),
    such as a vector_b member and its dilated or amplified datum, stay
    equal, since the Strang map treats both alike, so they are stepped as
    one row too, which the rotation reads as its own partner and the
    observables count for both.

    companions are further initial pairs on pair's grid, run under the same
    schedule as one (E, r, *shape) batch, so that each transform call and
    each pass of the rotation serves every member; a lone run is a batch of
    one. Their logs come back,
    in order, as the returned log's companions; each member's log is bit
    for bit the one a separate run returns. A member that trips the guard or stops
    being finite leaves the batch and the others run on."""
    members = (pair, *companions)
    for other in members[1:]:
        same_grid(pair, other)
    _check_hold(pair.grid, config, len(members))
    U = np.array([member.components for member in members])
    log, *others = _evolve_stack(pair.grid, params, config, U)
    log.companions = tuple(others)
    return log


def _check_hold(grid, config, members=1):
    """Refuse, with ValueError, a run of members pairs on grid under config
    whose live stack and kept snapshots would exceed _MAX_HELD complex
    values."""
    n_steps = round(config.t_end / config.dt)
    kept = n_steps // config.snapshot_stride + 2 if config.snapshot_stride else 1
    held = members * 2 * grid.total_points * (1 + kept)
    if held > _MAX_HELD:
        raise ValueError(
            f"t_end/dt = {n_steps} steps at snapshot_stride = {config.snapshot_stride} would hold "
            f"{held} complex values for {members} member(s) on {grid.total_points} points, "
            f"above the ceiling of {_MAX_HELD}"
        )


def _synchronized(U: np.ndarray) -> bool:
    """True when the two components of every member of U, an
    (E, 2, *shape) batch, are equal bit for bit."""
    bits = U.reshape(len(U), 2, -1).view(np.uint64)
    return np.array_equal(bits[:, 0], bits[:, 1])


class _Run:
    """One member of an evolving stack: its samples, snapshots, guard level
    and latest finite observed state, and the step at which it stopped. The
    member is held as the rows that the sampler's layout gives: its
    components in the slice held, or one row standing for both; the others
    are zero."""

    def __init__(self, sampler, config, U, S):
        self.sampler = sampler
        self.grid, self.params, self.held = sampler.grid, sampler.params, sampler.held
        self.rows = []
        self.snapshots = []
        self.blowup_time = None
        # the initial state is finite, so it is always sampled
        self.guard_level = config.blowup_guard * max(self.sample(0.0, U, S), 1e-300)
        if config.snapshot_stride:
            self.snapshots.append((0.0, _embed(self.grid, U, self.held)))
        # the latest observed whole-step state known to be finite: the
        # terminal state, also when the run is aborted because a later one
        # is not
        self.last = (0.0, U)

    def sample(self, t, U, S):
        """Log the observables of the whole-step state U, with S its
        spectrum up to a unitary kinetic multiplier; returns ||grad U||, or
        None, logging nothing, when U is not finite. An absent component
        adds exact zeros to every observable."""
        measured = self.sampler.measure(U, S)
        if measured is None:
            return None
        norms, var = measured
        self.rows.append((t, norms.m1, norms.m2, norms.energy, var, math.sqrt(norms.grad)))
        return self.rows[-1][5]

    def observe(self, t, U, S, sampling, snapping) -> bool:
        """Take the whole-step state U at time t, sampled if sampling; False
        when the run stops there, because U is not finite or its gradient
        passed the guard."""
        if sampling:
            grad = self.sample(t, U, S)
            finite = grad is not None
        else:
            grad = None
            finite = np.isfinite(U).all()
        if not finite:
            self.blowup_time = t
            return False
        self.last = (t, U)
        if grad is not None and grad > self.guard_level:
            self.blowup_time = t
            return False
        if snapping:
            self.snapshots.append((t, _embed(self.grid, U, self.held)))
        return True

    def log(self) -> TrajectoryLog:
        # the terminal state is always retrievable, snapshot stride or not
        t_last, U = self.last
        if not self.snapshots or self.snapshots[-1][0] != t_last:
            self.snapshots.append((t_last, _embed(self.grid, U, self.held)))
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
            steps=self.steps,
            transform_calls=2 * self.steps + 2,
        )


def _inverse_pair(grid, half, full, S):
    """The inverse transforms of half * S and full * S, an (E, r, *shape)
    stack of spectra, from one call on their (2E, r, *shape) stack."""
    E = len(S)
    Z = np.empty((2 * E,) + S.shape[1:], dtype=complex)
    np.multiply(half, S, out=Z[:E])
    np.multiply(full, S, out=Z[E:])
    W = _ifft(grid, Z)
    return W[:E], W[E:]


def _evolve_stack(grid, params, config, U):
    """evolve for every member of U, a batch (E, 2, *shape) of stacked
    pairs, a lone run too; one TrajectoryLog per member. Only the r
    components in core._populated's slice are stepped, as an (E, r, *shape)
    stack, and two that are synchronized as one row. A member that stops
    is dropped from the live stack, so the transforms and the rotation run
    over the members still going."""
    dt = config.dt
    n_steps = int(round(config.t_end / dt))
    if n_steps < 1:
        raise ValueError(f"t_end={config.t_end} covers no whole step of dt={dt}")
    if not np.isfinite(U).all():
        raise ValueError("the initial state must be finite")
    half = np.exp(-0.5j * dt * grid.k2)
    full = np.exp(-1j * dt * grid.k2)
    held = _populated(U, grid)
    U = U[:, held]
    synchronized = U.shape[1] == 2 and _synchronized(U)
    if synchronized:
        U = U[:, :1]
    sampler = _Norms.sampler(params, grid, held, synchronized)
    S = _fft(grid, U)
    runs = live = [_Run(sampler, config, u, s) for u, s in zip(U, S)]

    # V is the state before the next rotation: the whole-step state moved
    # on by a kinetic half step, here the first spectrum's. Every step
    # rotates V and transforms it forward; between observations the
    # trailing half step of one step and the leading one of the next merge
    # into one whole step, so a step costs one transform round trip, not
    # two, and deposits half the roundoff in the otherwise exactly
    # conserved masses. An observed step before the last inverts the half
    # and the whole step of its spectrum in one call: its whole-step state
    # U and the next V
    V = _ifft(grid, np.multiply(half, S, out=S))
    for s in range(1, n_steps + 1):
        S = _fft(grid, _rotate(grid, V, params, dt, synchronized))
        sampling = s % config.conservation_check_stride == 0 or s == n_steps
        snapping = config.snapshot_stride and s % config.snapshot_stride == 0
        if s == n_steps:
            U = _ifft(grid, half * S)
        elif sampling or snapping:
            U, V = _inverse_pair(grid, half, full, S)
        else:
            V = _ifft(grid, np.multiply(full, S, out=S))
            continue
        t = s * dt
        going = [run.observe(t, u, sp, sampling, snapping) for run, u, sp in zip(live, U, S)]
        if not all(going):
            for run, on in zip(live, going):
                if not on:
                    run.steps = s
            live = [run for run, on in zip(live, going) if on]
            if not live:
                break
            V = V[going]
    for run in live:
        run.steps = s
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

    Uses the centered second differences of uniformly spaced samples whose
    three variance samples are finite and, for a window (t0, t1), all lie
    in t0 <= t <= t1; max_residual is relative to the largest |8R| among
    them. A window that is not a pair of finite real numbers raises
    ValueError naming it.
    """
    if window is not None:
        try:
            ends = tuple(window)
        except TypeError:
            ends = ()
        if len(ends) != 2:
            raise ValueError(f"window must be a pair (t0, t1), got {window!r}")
        window = [_check_number(end, f"window[{i}]", "be a finite real number", math.isfinite)
                  for i, end in enumerate(ends)]
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
        inside = (t >= window[0]) & (t <= window[1])
        keep &= inside[:-2] & inside[1:-1] & inside[2:]
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
