"""Orbital stability experiments.

The symmetry group of the system is per-component phase rotation plus
translation, so the meaningful distance between a trajectory point and a
standing wave is measured to the whole orbit

    (e^(i theta1) v1(. - y), e^(i theta2) v2(. - y)).

With C_j(y) = <psi_j, v_j(. - y)> in the H_omega_j inner product, the
optimal phases are theta_j = arg C_j(y) and

    dist(y)^2 = ||psi||_H^2 + ||v||_H^2 - 2 (|C_1(y)| + |C_2(y)|),

so minimizing over the orbit reduces to maximizing |C_1| + |C_2| over the
shift alone. C_1 and C_2 at every grid shift come from one stacked inverse
transform of (|k|^2 + omega_j) psi_hat conj(v_hat); the best grid shift
seeds Newton steps on the shift, which take C_j and its first and second
shift derivatives from the exact plane-wave sums between grid points. The
reference spectra are taken once per sweep, so a state costs one forward
transform plus one inverse per reference.

The reported distance is not read off the expression above, which loses
every distance below about 1e-8 ||v||_H to cancellation, but summed
directly at the chosen orbit point from the spectra in hand:

    dist^2 = sum_k w (|k|^2 + omega_j) |psi_hat_j - e^(i theta_j) e^(-i k.y) v_hat_j|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .core import FieldPair, Grid, SystemParams
from .dynamics import EvolveConfig, evolve
from .errors import ConstraintError
from .functionals import _Norms, action_I
from .minimize import ground_state
from .profiles import Family, ScalingParams, SolitonSpec, make_member, scale_pair

__all__ = [
    "OrbitDistanceResult",
    "orbit_distance",
    "perturbation_pair",
    "StabilityVerdict",
    "stability_sweep",
    "BlowupReport",
    "blowup_experiment",
]

_FAMILY_NAMES = ("scalar_first", "scalar_second", "vector_b", "ground")

# severity order for combining per-run classifications
_SEVERITY = ("stable_within_tolerance", "excursion_growth", "blow_up")


@dataclass(frozen=True)
class OrbitDistanceResult:
    distance: float
    shift: tuple
    phases: tuple
    reference_index: int


def _wrap(y: float, half_width: float) -> float:
    period = 2.0 * half_width
    return (y + half_width) % period - half_width


# Newton steps per refinement: from the parabola seed the error squares at
# each step, so the shift reaches roundoff in about three
_NEWTON_STEPS = 8


def _ascent_step(grad, hess):
    """The Newton step -hess^-1 grad toward a maximum, or None where hess is
    not negative definite: by a Cholesky factorization L L^T of -hess in
    Python floats, since for dim <= 3 a LAPACK call costs more than the
    algebra, and its workspace raises the peak memory of a run."""
    a, n = (-hess).tolist(), len(grad)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = a[i][j] - sum(low[i][k] * low[j][k] for k in range(j))
            if i > j:
                low[i][j] = s / low[j][j]
            elif s > 0:
                low[i][i] = math.sqrt(s)
            else:
                return None
    # L z = grad, then L^T x = z
    z = [0.0] * n
    for i in range(n):
        z[i] = (grad[i] - sum(low[i][k] * z[k] for k in range(i))) / low[i][i]
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (z[i] - sum(low[k][i] * x[k] for k in range(i + 1, n))) / low[i][i]
    return np.array(x)


class _Orbits:
    """Reference pairs v measured once, for distances from many states:
    weight = (dx^n / N) (|k|^2 + omega_j), stacked over the components,
    and for each reference its stacked spectrum v_hat and weight conj(v_hat).
    A state's C_j and its distance to the chosen orbit point then come from
    its one stacked spectrum."""

    def __init__(self, refs, params: SystemParams):
        grid = self.grid = refs[0].grid
        omegas = np.reshape(params.weights, (2,) + (1,) * grid.dim)
        self.weight = grid.cell_volume / grid.total_points * (grid.k2 + omegas)
        spectra = [core._fft(grid, np.stack(ref.components)) for ref in refs]
        self.refs = [(vh, self.weight * np.conj(vh)) for vh in spectra]
        # columns 1, i k_a and -k_a k_b (a <= b), for C_j and its first and
        # second shift derivatives in one product
        k = [np.broadcast_to(ka, grid.shape) for ka in np.ix_(*grid.wavenumbers)]
        self.upper = np.triu_indices(grid.dim)
        columns = [np.ones(grid.shape)] + [1j * ka for ka in k] + [-k[a] * k[b] for a, b in zip(*self.upper)]
        self.moments = np.stack(columns).reshape(len(columns), -1).T

    def _norm_sq(self, spectrum):
        return float(np.sum(self.weight * core._density(spectrum)))

    def closest(self, psi: FieldPair, refine: bool = True) -> OrbitDistanceResult:
        psi_h = core._fft(self.grid, np.stack(psi.components))
        results = [self._single(psi_h, vh, wv, refine) + (i,) for i, (vh, wv) in enumerate(self.refs)]
        return OrbitDistanceResult(*min(results, key=lambda r: r[0]))

    def _sums(self, P, y):
        """C_j(y), its gradient and the upper triangle of its Hessian in the
        shift, as the columns of a (2, 1 + dim + dim(dim+1)/2) array."""
        phase = np.exp(self.moments[:, 1 : 1 + self.grid.dim] @ y)
        return (P.reshape(2, -1) * phase) @ self.moments

    def _newton(self, P, y):
        """Newton steps from y toward the nearest maximum of
        |C_1(y)| + |C_2(y)|, each clipped to dx per axis; they stop where
        the Hessian is not negative definite or the step is below roundoff.
        Returns the last shift and its sums."""
        grid = self.grid
        dim = grid.dim
        floor = 4.0 * np.finfo(float).eps
        for _ in range(_NEWTON_STEPS):
            sums = self._sums(P, y)
            live = np.abs(sums[:, 0]) > 0
            c, dc, ddc = sums[live, 0], sums[live, 1 : 1 + dim], sums[live, 1 + dim :]
            a = np.abs(c)
            # d|C|/dy_a = Re(conj(C) dC_a) / |C|, and the Hessian of |C| is
            # (Re(conj(dC_b) dC_a) + Re(conj(C) d2C_ab) - g_a g_b) / |C|
            g = (c.conj()[:, None] * dc).real / a[:, None]
            d2 = np.empty((len(c), dim, dim), dtype=complex)
            d2[:, self.upper[0], self.upper[1]] = ddc
            d2[:, self.upper[1], self.upper[0]] = ddc
            hess = (
                (dc.conj()[:, None, :] * dc[:, :, None]).real
                + (c.conj()[:, None, None] * d2).real
                - g[:, :, None] * g[:, None, :]
            ) / a[:, None, None]
            ascent = _ascent_step(g.sum(axis=0), hess.sum(axis=0))
            if ascent is None:
                return y, sums
            step = np.clip(ascent, -grid.dx, grid.dx)
            y = y + step
            if np.abs(step).max() <= floor * (np.abs(y).max() + grid.dx):
                break
        return y, self._sums(P, y)

    def _single(self, psi_h, vh, wv, refine):
        """(distance, shift, phases) of psi_hat from the orbit of v_hat, with
        wv = weight conj(v_hat)."""
        grid = self.grid
        P = wv * psi_h
        # |C_1| + |C_2| at every grid shift in one pass
        score = np.abs(grid.total_points * core._ifft(grid, P)).sum(axis=0)
        best = float(score.max())
        # scores this close to the best are equal within their roundoff
        near_best = best - 1e-12 * abs(best) - 1e-300
        # of the near-maximal grid shifts, the one nearest the origin
        idx = np.argwhere(score >= near_best)
        ys = _wrap(idx * grid.dx, grid.half_width)
        _, y0, idx0 = min(zip((ys * ys).sum(axis=1).tolist(), ys.tolist(), map(tuple, idx.tolist())))
        y0 = np.array(y0)
        sums = None

        if refine:
            # per-axis parabola through the three neighboring grid shifts
            seed = y0.copy()
            for ax in range(grid.dim):
                d_lo, d_mid, d_hi = (float(np.roll(score, s, axis=ax)[idx0]) for s in (1, 0, -1))
                denom = d_lo - 2.0 * d_mid + d_hi
                if denom < 0:
                    seed[ax] += np.clip(0.5 * (d_lo - d_hi) / denom, -1.0, 1.0) * grid.dx
            y, refined = self._newton(P, seed)
            # a refined shift must score at least the best grid shift; near
            # the maximum the score is flat to second order, so a shift off
            # by O(d) gains only O(d^2) there, within roundoff for small d
            if np.abs(refined[:, 0]).sum() >= near_best:
                y0, sums = y, refined
        if sums is None:
            sums = self._sums(P, y0)

        phases = [math.atan2(c.imag, c.real) for c in sums[:, 0]]
        # e^(i theta_j) e^(-i k.y) v_hat_j, the spectrum of the orbit point
        shift = np.exp(-1j * sum(k * y for k, y in zip(np.ix_(*grid.wavenumbers), y0)))
        nearest = np.exp(1j * np.reshape(phases, (2,) + (1,) * grid.dim)) * shift * vh
        return (
            math.sqrt(self._norm_sq(psi_h - nearest)),
            tuple(_wrap(v, grid.half_width) for v in y0),
            tuple(phases),
        )


def orbit_distance(
    psi: FieldPair, reference, params: SystemParams, *, refine: bool = True
) -> OrbitDistanceResult:
    """H_omega distance from psi to the closest of the reference orbits.
    reference is a FieldPair or a sequence of them."""
    refs = [reference] if isinstance(reference, FieldPair) else list(reference)
    if not refs:
        raise ValueError("need at least one reference")
    for ref in refs:
        core.same_grid(psi, ref)
    return _Orbits(refs, params).closest(psi, refine)


def perturbation_pair(
    grid: Grid, params: SystemParams, *, mode: str = "both", seed: int = 0
) -> FieldPair:
    """A smooth localized complex perturbation of unit H_omega norm: a
    Gaussian envelope times a random low-degree polynomial, so both even and
    odd directions are excited. mode selects the populated components."""
    if mode not in ("first", "second", "both"):
        raise ValueError(f"mode must be 'first', 'second' or 'both', got {mode!r}")
    rng = np.random.default_rng(seed)
    envelope = np.exp(-0.25 * grid.radius_sq())

    def draw():
        poly = rng.standard_normal() + 1j * rng.standard_normal()
        for x in np.ix_(*grid.axes):
            c1 = rng.standard_normal() + 1j * rng.standard_normal()
            c2 = rng.standard_normal() + 1j * rng.standard_normal()
            poly = poly + c1 * x + 0.25 * c2 * x * x
        return envelope * poly

    zero = np.zeros(grid.shape, dtype=complex)
    if mode == "first":
        pert = FieldPair(grid, draw(), zero, copy=False)
    elif mode == "second":
        pert = FieldPair(grid, zero, draw(), copy=False)
    else:
        pert = FieldPair(grid, draw(), draw(), copy=False)
    return (1.0 / math.sqrt(core.h1_norm_sq(pert, params))) * pert


def _family_state(family: str, params: SystemParams, grid: Grid, *, tol: float, seed: int):
    """The unperturbed state for a family plus the reference orbits used to
    measure distances. For 'ground' the scalar branch references are the
    sampled closed forms; at equal frequencies both scalar orbits sit at the
    ground level and both are included."""
    if family not in _FAMILY_NAMES:
        raise ValueError(f"family must be one of {_FAMILY_NAMES}, got {family!r}")
    if family == "ground":
        result = ground_state(params, grid, tol=tol, seed=seed)
        if result.classification == "vector":
            return result.minimizer, [result.minimizer]
        first = make_member(SolitonSpec.for_family(Family.SCALAR_FIRST, params), params, grid)
        second = make_member(SolitonSpec.for_family(Family.SCALAR_SECOND, params), params, grid)
        if result.classification == "scalar_first":
            refs = [first] + ([second] if params.omega1 == params.omega2 else [])
            return first, refs
        refs = [second] + ([first] if params.omega1 == params.omega2 else [])
        return second, refs
    member = make_member(SolitonSpec.for_family(Family(family), params), params, grid)
    return member, [member]


@dataclass(frozen=True)
class StabilityVerdict:
    """Per-epsilon outcomes of a perturbation sweep. For epsilon > 0 the
    excursion is max_t d(t)/d(0); for epsilon = 0 it is the absolute orbit
    distance floor of the scheme itself. classification is the most severe
    of the per-run classifications."""

    family: str
    epsilons: tuple
    initial_distances: tuple
    max_excursions: tuple
    classifications: tuple
    blowup_times: tuple
    classification: str
    details: dict


def stability_sweep(
    params: SystemParams,
    grid: Grid,
    *,
    family: str = "ground",
    epsilons=(0.0, 1e-3, 1e-2),
    dt: float = 1e-3,
    t_end: float = 50.0,
    sample_dt: float = 0.5,
    perturb_mode: str = "both",
    seed: int = 0,
    excursion_ratio: float = 10.0,
    zero_orbit_tol: float = 1e-5,
    guard_ratio: float = 1e6,
    tol: float = 1e-8,
) -> StabilityVerdict:
    """Evolve family member + epsilon * (unit perturbation) for each epsilon
    and track the orbit distance at sample_dt intervals. All the epsilons
    run as one batch of evolve."""
    epsilons = tuple(float(e) for e in epsilons)
    if not epsilons:
        raise ValueError("need at least one epsilon")
    base, refs = _family_state(family, params, grid, tol=tol, seed=seed)
    pert = perturbation_pair(grid, params, mode=perturb_mode, seed=seed)
    stride = max(1, int(round(sample_dt / dt)))
    orbits = _Orbits(refs, params)

    initial_distances = []
    max_excursions = []
    classifications = []
    blowup_times = []
    distance_series = []
    time_series = []

    config = EvolveConfig(
        dt=dt,
        t_end=t_end,
        snapshot_stride=stride,
        conservation_check_stride=stride,
        blowup_guard=guard_ratio,
    )
    # every epsilon in one batched run
    first, *rest = (base + eps * pert for eps in epsilons)
    batch = evolve(first, params, config, companions=rest)

    for eps, log in zip(epsilons, (batch, *batch.companions)):
        times = np.array([t for t, _ in log.snapshots])
        dists = np.array([orbits.closest(state).distance for _, state in log.snapshots])
        d0 = float(dists[0])
        peak = float(dists.max())
        if log.aborted:
            cls = "blow_up"
            excursion = math.inf
        elif eps == 0.0:
            excursion = peak
            cls = "stable_within_tolerance" if peak <= zero_orbit_tol else "excursion_growth"
        else:
            excursion = peak / d0
            cls = (
                "stable_within_tolerance"
                if excursion <= excursion_ratio
                else "excursion_growth"
            )
        initial_distances.append(d0)
        max_excursions.append(excursion)
        classifications.append(cls)
        blowup_times.append(log.blowup_time)
        distance_series.append(dists)
        time_series.append(times)

    worst = max(classifications, key=_SEVERITY.index)
    return StabilityVerdict(
        family=family,
        epsilons=epsilons,
        initial_distances=tuple(initial_distances),
        max_excursions=tuple(max_excursions),
        classifications=tuple(classifications),
        blowup_times=tuple(blowup_times),
        classification=worst,
        details={
            "times": time_series,
            "distances": distance_series,
            "excursion_ratio": excursion_ratio,
            "zero_orbit_tol": zero_orbit_tol,
        },
    )


@dataclass(frozen=True)
class BlowupReport:
    """Outcome of a prepared-collapse run.

    sigma is the action gap between the family level and the prepared datum;
    the variance of a collapsing trajectory must stay concave and its second
    derivative below -8 sigma on the reported window."""

    family: str
    mode: str
    factor: float
    sigma: float
    initial_virial: float
    action_datum: float
    family_level: float
    ground_level: float
    lemma_gap_ok: bool
    blowup_time: float | None
    collapsed: bool
    concave: bool
    bound_satisfied: bool
    max_second_derivative: float
    details: dict

    @property
    def classification(self) -> str:
        return "blow_up" if self.collapsed else "no_blow_up"


def blowup_experiment(
    params: SystemParams,
    grid: Grid,
    *,
    family: str = "ground",
    factor: float = 1.1,
    dt: float = 1e-3,
    t_max: float = 5.0,
    guard_ratio: float = 20.0,
    window_fraction: float = 0.8,
    margin: float = 0.05,
    tol: float = 1e-8,
    seed: int = 0,
) -> BlowupReport:
    """Prepare a negative-virial datum below the family action level and
    drive it to collapse.

    Supercritical exponents use the mass-preserving dilation
    mu = factor^(n/2), lambda = factor, which strictly lowers the action off
    its peak at the member; at the critical exponent that dilation leaves
    the action flat, so the datum is the amplified member factor * U
    instead. Subcritical exponents disperse globally and are refused.
    """
    if not factor > 1.0:
        raise ValueError(f"factor must exceed 1, got {factor}")
    crit = params.criticality(grid.dim)
    if crit == "subcritical":
        raise ConstraintError(
            "no collapse mechanism below the critical exponent; "
            f"p={params.p} in dimension {grid.dim} is subcritical"
        )
    base, _refs = _family_state(family, params, grid, tol=tol, seed=seed)
    family_level = action_I(base, params)
    if crit == "supercritical":
        mode = "dilation"
        datum = scale_pair(base, ScalingParams(mu=factor ** (grid.dim / 2.0), lam=factor))
    else:
        mode = "amplification"
        datum = factor * base

    norms = _Norms.measure(datum, params)
    r0 = norms.virial
    if not r0 < 0:
        raise ConstraintError(f"prepared datum has R = {r0:g} >= 0; no collapse certificate")
    action_datum = norms.action
    sigma = family_level - action_datum
    if not sigma > 0:
        raise ConstraintError(
            f"prepared datum sits above the family level (gap {sigma:g}); "
            "increase the preparation factor"
        )
    if family == "ground":
        ground_level = family_level
    else:
        ground_level = ground_state(params, grid, tol=tol, seed=seed).action
    # gap inequality: once R < 0, R stays dominated by I - ground level
    lemma_gap_ok = r0 <= action_datum - ground_level + 1e-10 * max(1.0, abs(r0))

    config = EvolveConfig(
        dt=dt, t_end=t_max, conservation_check_stride=1, blowup_guard=guard_ratio
    )
    log = evolve(datum, params, config)
    collapsed = log.blowup_time is not None
    t_star = log.blowup_time if collapsed else log.times[-1]

    window_end = window_fraction * t_star
    in_window = log.times <= window_end
    var = log.variance[in_window]
    times = log.times[in_window]
    # the variance integrand loses meaning once shed radiation reaches the box
    # edge and its samples turn NaN; test concavity on the finite stretch only
    finite = np.isfinite(var)
    concave = False
    bound_satisfied = False
    max_vdd = math.nan
    coverage = float(finite.mean()) if len(var) else 0.0
    triple = finite[2:] & finite[1:-1] & finite[:-2]
    if len(var) >= 3 and triple.any():
        h = times[1] - times[0]
        vdd = (var[2:] - 2.0 * var[1:-1] + var[:-2])[triple] / h**2
        max_vdd = float(vdd.max())
        concave = max_vdd <= margin * 8.0 * sigma
        bound_satisfied = max_vdd <= -8.0 * sigma * (1.0 - margin)

    return BlowupReport(
        family=family,
        mode=mode,
        factor=float(factor),
        sigma=float(sigma),
        initial_virial=float(r0),
        action_datum=float(action_datum),
        family_level=float(family_level),
        ground_level=float(ground_level),
        lemma_gap_ok=bool(lemma_gap_ok),
        blowup_time=log.blowup_time,
        collapsed=collapsed,
        concave=concave,
        bound_satisfied=bound_satisfied,
        max_second_derivative=max_vdd,
        details={
            "times": log.times,
            "variance": log.variance,
            "gradnorm": log.gradnorm,
            "window_end": window_end,
            "window_coverage": coverage,
            "coupling_F_datum": norms.F,
        },
    )
