"""Orbital stability experiments.

The symmetry group of the system is per-component phase rotation plus
translation, so the meaningful distance between a trajectory point and a
standing wave is measured to the whole orbit

    (e^(i theta1) v1(. - y), e^(i theta2) v2(. - y)).

With C_j(y) = <psi_j, v_j(. - y)> in the H_omega_j inner product, the
optimal phases are theta_j = arg C_j(y) and

    dist(y)^2 = ||psi||_H^2 + ||v||_H^2 - 2 (|C_1(y)| + |C_2(y)|),

so minimizing over the orbit reduces to maximizing |C_1| + |C_2| over the
shift alone. C_j at every grid shift comes from one inverse transform of
(|k|^2 + omega_j) psi_hat conj(v_hat); the best grid shift seeds a
quasi-Newton refinement that evaluates the exact plane-wave sums between
grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import fftn, ifftn
from scipy.optimize import minimize as _scipy_minimize

from . import core
from .core import FieldPair, Grid, SystemParams
from .dynamics import EvolveConfig, evolve
from .errors import ConstraintError
from .functionals import action_I, coupling_F, virial_R
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


def _orbit_distance_single(psi: FieldPair, ref: FieldPair, params: SystemParams, refine: bool):
    grid = psi.grid
    dim = grid.dim
    w = grid.cell_volume / grid.total_points
    spectra = []
    for a, b, om in ((psi.c1, ref.c1, params.omega1), (psi.c2, ref.c2, params.omega2)):
        spectra.append(w * (grid.k2 + om) * fftn(a) * np.conj(fftn(b)))

    # |C_1| + |C_2| at every grid shift in one pass
    cgrids = [grid.total_points * ifftn(P) for P in spectra]
    score = sum(np.abs(c) for c in cgrids)
    best = float(score.max())
    flat = np.flatnonzero(score >= best - 1e-12 * abs(best) - 1e-300)
    candidates = np.array(np.unravel_index(flat, grid.shape)).T
    ys = []
    for idx in candidates:
        y = tuple(_wrap(i * grid.dx, grid.half_width) for i in idx)
        ys.append((sum(v * v for v in y), y, tuple(int(i) for i in idx)))
    ys.sort()
    _, y0, idx0 = ys[0]
    y0 = np.asarray(y0, dtype=float)
    kaxes = np.ix_(*grid.wavenumbers)

    def phase_at(y):
        phase = 1.0
        for k, yk in zip(kaxes, y):
            phase = phase * np.exp(1j * k * yk)
        return phase

    if refine:
        # per-axis parabola through the three neighboring grid shifts
        for ax in range(dim):
            lo = list(idx0)
            hi = list(idx0)
            lo[ax] = (idx0[ax] - 1) % grid.points_per_axis
            hi[ax] = (idx0[ax] + 1) % grid.points_per_axis
            d_lo = float(score[tuple(lo)])
            d_mid = float(score[tuple(idx0)])
            d_hi = float(score[tuple(hi)])
            denom = d_lo - 2.0 * d_mid + d_hi
            if denom < 0:
                y0[ax] += np.clip(0.5 * (d_lo - d_hi) / denom, -1.0, 1.0) * grid.dx

        def neg_score(y):
            phase = phase_at(y)
            val = 0.0
            grad = np.zeros(dim)
            for P in spectra:
                c = complex(np.sum(P * phase))
                a = abs(c)
                val += a
                if a > 0:
                    for ax in range(dim):
                        dc = complex(np.sum(1j * kaxes[ax] * P * phase))
                        grad[ax] += (c.conjugate() * dc).real / a
            return -val, -grad

        res = _scipy_minimize(neg_score, y0, jac=True, method="BFGS", options={"gtol": 1e-12})
        if -res.fun >= best:
            y0 = res.x
            best = -res.fun

    phase = phase_at(y0)
    cs = [complex(np.sum(P * phase)) for P in spectra]
    dist_sq = (
        core.h1_norm_sq(psi, params)
        + core.h1_norm_sq(ref, params)
        - 2.0 * sum(abs(c) for c in cs)
    )
    return (
        math.sqrt(max(dist_sq, 0.0)),
        tuple(_wrap(v, grid.half_width) for v in y0),
        tuple(math.atan2(c.imag, c.real) for c in cs),
    )


def orbit_distance(
    psi: FieldPair, reference, params: SystemParams, *, refine: bool = True
) -> OrbitDistanceResult:
    """H_omega distance from psi to the closest of the reference orbits.
    reference is a FieldPair or a sequence of them."""
    refs = [reference] if isinstance(reference, FieldPair) else list(reference)
    if not refs:
        raise ValueError("need at least one reference")
    best = None
    for i, ref in enumerate(refs):
        core.same_grid(psi, ref)
        d, shift, phases = _orbit_distance_single(psi, ref, params, refine)
        if best is None or d < best[0]:
            best = (d, shift, phases, i)
    return OrbitDistanceResult(
        distance=best[0], shift=best[1], phases=best[2], reference_index=best[3]
    )


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
    and track the orbit distance at sample_dt intervals."""
    base, refs = _family_state(family, params, grid, tol=tol, seed=seed)
    pert = perturbation_pair(grid, params, mode=perturb_mode, seed=seed)
    stride = max(1, int(round(sample_dt / dt)))

    initial_distances = []
    max_excursions = []
    classifications = []
    blowup_times = []
    distance_series = []
    time_series = []

    for eps in epsilons:
        psi0 = base + float(eps) * pert
        config = EvolveConfig(
            dt=dt,
            t_end=t_end,
            snapshot_stride=stride,
            conservation_check_stride=stride,
            blowup_guard=guard_ratio,
        )
        log = evolve(psi0, params, config)
        times = np.array([t for t, _ in log.snapshots])
        dists = np.array(
            [orbit_distance(state, refs, params).distance for _, state in log.snapshots]
        )
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
        epsilons=tuple(float(e) for e in epsilons),
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

    r0 = virial_R(datum, params)
    if not r0 < 0:
        raise ConstraintError(f"prepared datum has R = {r0:g} >= 0; no collapse certificate")
    action_datum = action_I(datum, params)
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
            "coupling_F_datum": coupling_F(datum, params),
        },
    )
