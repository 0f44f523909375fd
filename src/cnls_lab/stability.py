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
from .core import _SEED, FieldPair, Grid, SystemParams, _check_number
from .dynamics import EvolveConfig, _check_hold, evolve, virial_series
from .errors import ConstraintError
from .functionals import _Norms, action_I
from .minimize import ground_state
from .profiles import Family, ScalingParams, make_member, scale_pair

__all__ = [
    "OrbitDistanceResult",
    "orbit_distance",
    "perturbation_pair",
    "StabilityVerdict",
    "stability_sweep",
    "BlowupReport",
    "blowup_experiment",
]

_FAMILY_NAMES = tuple(f.value for f in Family) + ("ground",)

# severity order for combining per-run classifications
_SEVERITY = ("stable_within_tolerance", "excursion_growth", "blow_up")

# the components a perturbation may populate, keys of core._MODE_ROWS
_PERTURB_MODES = ("first", "second", "both")


@dataclass(frozen=True)
class OrbitDistanceResult:
    distance: float
    shift: tuple
    phases: tuple
    reference_index: int


def _wrap(y: float, half_width: float) -> float:
    period = 2.0 * half_width
    return (y + half_width) % period - half_width


# Newton steps per refinement, a cap: from the best grid shift the error
# squares at each step, and the refinement stops at the first step that
# no longer shrinks, which is roundoff, after three or four steps
_NEWTON_STEPS = 8


def _ascent_step(grad, hess):
    """The Newton step -hess^-1 grad toward a maximum, by a Cholesky
    factorization L L^T of -hess, or None where hess is not finite or not
    negative definite."""
    if not np.isfinite(hess).all():
        return None
    try:
        low = np.linalg.cholesky(-hess)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.solve(low.T, np.linalg.solve(low, grad))


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
        spectra = [core._fft(grid, ref.components) for ref in refs]
        self.refs = [(vh, self.weight * np.conj(vh)) for vh in spectra]
        # columns 1, i k_a and -k_a k_b, for C_j and its first and second
        # shift derivatives in one product
        k = [np.broadcast_to(ka, grid.shape) for ka in np.ix_(*grid.wavenumbers)]
        columns = [np.ones(grid.shape)] + [1j * ka for ka in k] + [-ka * kb for ka in k for kb in k]
        self.moments = np.stack(columns).reshape(len(columns), -1).T

    def _norm_sq(self, spectrum):
        return float(np.sum(self.weight * core._density(spectrum)))

    def closest(self, psi: FieldPair) -> OrbitDistanceResult:
        psi_h = core._fft(self.grid, psi.components)
        results = [self._single(psi_h, vh, wv) + (i,) for i, (vh, wv) in enumerate(self.refs)]
        return OrbitDistanceResult(*min(results, key=lambda r: r[0]))

    def _sums(self, P, y):
        """C_j(y), its gradient and its Hessian in the shift, of shapes
        (2,), (2, dim) and (2, dim, dim)."""
        dim = self.grid.dim
        phase = np.exp(self.moments[:, 1 : 1 + dim] @ y)
        sums = (P.reshape(2, -1) * phase) @ self.moments
        return sums[:, 0], sums[:, 1 : 1 + dim], sums[:, 1 + dim :].reshape(2, dim, dim)

    def _newton(self, P, y):
        """Newton steps from y toward the nearest maximum of
        |C_1(y)| + |C_2(y)|, each clipped to dx per axis; they stop where
        the Hessian is not negative definite, or after a step that is below
        roundoff or, unclipped, at least half its predecessor: Newton steps
        shrink quadratically until gradient roundoff sets their size.
        Returns the last shift and its C_j."""
        grid = self.grid
        floor = 4.0 * np.finfo(float).eps
        previous = np.inf
        for _ in range(_NEWTON_STEPS):
            sums = self._sums(P, y)
            live = np.abs(sums[0]) > 0
            c, dc, d2 = (s[live] for s in sums)
            a = np.abs(c)
            # d|C|/dy_a = Re(conj(C) dC_a) / |C|, and the Hessian of |C| is
            # (Re(conj(dC_b) dC_a) + Re(conj(C) d2C_ab) - g_a g_b) / |C|
            g = (c.conj()[:, None] * dc).real / a[:, None]
            hess = (
                (dc.conj()[:, None, :] * dc[:, :, None]).real
                + (c.conj()[:, None, None] * d2).real
                - g[:, :, None] * g[:, None, :]
            ) / a[:, None, None]
            ascent = _ascent_step(g.sum(axis=0), hess.sum(axis=0))
            if ascent is None:
                return y, sums[0]
            step = np.clip(ascent, -grid.dx, grid.dx)
            y = y + step
            size = np.abs(step).max()
            if size <= floor * (np.abs(y).max() + grid.dx):
                break
            if size >= 0.5 * previous and (step == ascent).all():
                break
            previous = size
        return y, self._sums(P, y)[0]

    def _single(self, psi_h, vh, wv):
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
        ys = _wrap(np.argwhere(score >= near_best) * grid.dx, grid.half_width)
        y0 = np.array(min(zip((ys * ys).sum(axis=1).tolist(), ys.tolist()))[1])
        y, c = self._newton(P, y0)
        # a refined shift must score at least the best grid shift; near the
        # maximum the score is flat to second order, so a shift off by O(d)
        # gains only O(d^2) there, within roundoff for small d
        if np.abs(c).sum() >= near_best:
            y0 = y
        else:
            c = self._sums(P, y0)[0]

        phases = [math.atan2(cj.imag, cj.real) for cj in c]
        # e^(i theta_j) e^(-i k.y) v_hat_j, the spectrum of the orbit point
        shift = np.exp(-1j * sum(k * y for k, y in zip(np.ix_(*grid.wavenumbers), y0)))
        nearest = np.exp(1j * np.reshape(phases, (2,) + (1,) * grid.dim)) * shift * vh
        return (
            math.sqrt(self._norm_sq(psi_h - nearest)),
            tuple(_wrap(v, grid.half_width) for v in y0),
            tuple(phases),
        )


def orbit_distance(psi: FieldPair, reference, params: SystemParams) -> OrbitDistanceResult:
    """H_omega distance from psi to the closest of the reference orbits.
    reference is a FieldPair or a sequence of them."""
    refs = [reference] if isinstance(reference, FieldPair) else list(reference)
    if not refs:
        raise ValueError("need at least one reference")
    for ref in refs:
        core.same_grid(psi, ref)
    return _Orbits(refs, params).closest(psi)


def perturbation_pair(
    grid: Grid, params: SystemParams, *, mode: str = "both", seed: int = 0
) -> FieldPair:
    """A smooth localized complex perturbation of unit H_omega norm: a
    Gaussian envelope times a random low-degree polynomial, so both even and
    odd directions are excited. mode selects the populated components, and
    seed is a non-negative integer."""
    if mode not in _PERTURB_MODES:
        raise ValueError(f"mode must be 'first', 'second' or 'both', got {mode!r}")
    rng = np.random.default_rng(_check_number(seed, "seed", **_SEED))
    envelope = np.exp(-0.25 * grid.radius_sq())

    def draw():
        poly = rng.standard_normal() + 1j * rng.standard_normal()
        for x in np.ix_(*grid.axes):
            c1 = rng.standard_normal() + 1j * rng.standard_normal()
            c2 = rng.standard_normal() + 1j * rng.standard_normal()
            poly = poly + c1 * x + 0.25 * c2 * x * x
        return envelope * poly

    held = core._MODE_ROWS[mode]
    pert = FieldPair(grid, *core._per_component(held, [draw() for _ in range(2)[held]], np.zeros(grid.shape)))
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
        families = [Family.SCALAR_FIRST, Family.SCALAR_SECOND]
        if result.classification == "scalar_second":
            families.reverse()
        if params.omega1 != params.omega2:
            del families[1:]
        refs = [make_member(f, params, grid) for f in families]
        return refs[0], refs
    member = make_member(Family(family), params, grid)
    return member, [member]


@dataclass(frozen=True)
class StabilityVerdict:
    """Per-epsilon outcomes of a perturbation sweep. For epsilon != 0 the
    excursion is max_t d(t)/d(0); for epsilon = 0 it is the absolute orbit
    distance floor of the scheme itself; for an aborted run it is inf.
    classification is the most severe of the per-run classifications, and
    details holds each run's sample times and distances."""

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
    tol: float = 1e-8,
) -> StabilityVerdict:
    """Evolve family member + epsilon * (unit perturbation) for each epsilon
    and track the orbit distance at sample_dt intervals. All the epsilons
    run as one batch of evolve, under EvolveConfig's default amplitude
    guard. A run that aborts is blow_up; any other is stable while its
    excursion stays at most its bound, which is excursion_ratio for
    epsilon != 0 and zero_orbit_tol for epsilon = 0.

    Raises ValueError before any flow or evolution for an epsilon that is
    not finite, a sample_dt that rounds to fewer than one step of dt, an
    excursion_ratio below 1 (d(t)/d(0) >= 1 holds at t = 0, so a lower
    ratio flags every run), a zero_orbit_tol or a flow tol that is not
    positive, or any of these not finite, a t_end that EvolveConfig
    refuses, epsilons, t_end and sample_dt whose batch would hold more
    than evolve's ceiling of 2**27 complex values, a seed that is not a
    non-negative integer, an unknown perturb_mode, and a bool, a string or
    a complex number for any number; and before any evolution for an
    epsilon with 0 < |epsilon| < 1e-12 ||member||_H."""
    try:
        entries = iter(epsilons)
    except TypeError:
        raise ValueError(f"epsilons must be a sequence of finite real numbers, got {epsilons!r}") from None
    epsilons = tuple(
        _check_number(eps, f"epsilons[{i}]", "be a finite real number", math.isfinite)
        for i, eps in enumerate(entries)
    )
    if not epsilons:
        raise ValueError("need at least one epsilon")
    real_dt = _check_number(dt, "dt", "be a finite real number", math.isfinite)
    _check_number(sample_dt, "sample_dt", f"give a finite sampling stride of at least one step of dt={dt}",
                  lambda t: real_dt != 0.0 and math.isfinite(t / real_dt) and round(t / real_dt) >= 1)
    _check_number(excursion_ratio, "excursion_ratio", "be finite and at least 1",
                  lambda ratio: 1.0 <= ratio < math.inf)
    _check_number(zero_orbit_tol, "zero_orbit_tol")
    _check_number(tol, "the flows' tol (flow_tol)")
    stride = int(round(sample_dt / dt))
    config = EvolveConfig(dt=dt, t_end=t_end, snapshot_stride=stride, conservation_check_stride=stride)
    try:
        _check_hold(grid, config, len(epsilons))
    except ValueError as exc:
        raise ValueError(f"{len(epsilons)} epsilons, t_end={t_end}, sample_dt={sample_dt}: {exc}") from exc
    try:
        # the perturbation draws from its own generator, so drawing it
        # before the family's flows changes none of its bits
        pert = perturbation_pair(grid, params, mode=perturb_mode, seed=seed)
    except ValueError as exc:
        if perturb_mode in _PERTURB_MODES:
            raise
        raise ValueError(f"perturb_mode: {exc}") from exc
    base, refs = _family_state(family, params, grid, tol=tol, seed=seed)
    # d(0) of a smaller perturbation is the roundoff floor of the orbit
    # distance, so d(t)/d(0) would measure that floor, not the orbit
    floor = 1e-12 * math.sqrt(core.h1_norm_sq(base, params))
    tiny = [eps for eps in epsilons if 0.0 < abs(eps) < floor]
    if tiny:
        raise ValueError(f"epsilons {tiny} are below the orbit distance floor {floor:.3g} (1e-12 ||member||_H)")
    orbits = _Orbits(refs, params)

    # every epsilon in one batched run
    first, *rest = (base + eps * pert for eps in epsilons)
    batch = evolve(first, params, config, companions=rest)

    runs = []
    for eps, log in zip(epsilons, (batch, *batch.companions)):
        times, states = zip(*log.snapshots)
        dists = np.array([orbits.closest(state).distance for state in states])
        d0 = float(dists[0])
        if log.aborted:
            excursion = math.inf
            cls = "blow_up"
        else:
            # relative to d(0), except the epsilon = 0 run's absolute floor
            excursion = float(dists.max()) / (d0 if eps else 1.0)
            bound = excursion_ratio if eps else zero_orbit_tol
            cls = "stable_within_tolerance" if excursion <= bound else "excursion_growth"
        runs.append((d0, excursion, cls, log.blowup_time, np.array(times), dists))
    initial_distances, max_excursions, classifications, blowup_times, times, dists = zip(*runs)

    return StabilityVerdict(
        family=family,
        epsilons=epsilons,
        initial_distances=initial_distances,
        max_excursions=max_excursions,
        classifications=classifications,
        blowup_times=blowup_times,
        classification=max(classifications, key=_SEVERITY.index),
        details={"times": times, "distances": dists},
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

    The variance is tested for concavity by virial_series on the first
    window_fraction of the run, in (0, 1], and margin, in [0, 1), is the
    relative slack of that test and of the second-derivative bound; values
    outside these ranges, a factor that is not finite and above 1, a dt,
    t_max or guard_ratio that EvolveConfig refuses as its dt, t_end or
    blowup_guard, and a flow tol that is not finite and positive raise
    ValueError before any flow or evolution, as do a bool, a string or a
    complex number for any of them.
    """
    _check_number(factor, "factor", "be finite and exceed 1", lambda f: 1.0 < f < math.inf)
    _check_number(window_fraction, "window_fraction", "lie in (0, 1]", lambda w: 0.0 < w <= 1.0)
    _check_number(margin, "margin", "lie in [0, 1)", lambda m: 0.0 <= m < 1.0)
    try:
        config = EvolveConfig(dt=dt, t_end=t_max, conservation_check_stride=1, blowup_guard=guard_ratio)
    except ValueError as exc:
        raise ValueError(f"dt={dt}, t_max={t_max}, guard_ratio={guard_ratio}: {exc}") from exc
    _check_number(tol, "the flows' tol (flow_tol)")
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

    log = evolve(datum, params, config)
    collapsed = log.blowup_time is not None
    t_star = log.blowup_time if collapsed else log.times[-1]

    # the first window_fraction of the run, which runs backward for dt < 0
    window = sorted((0.0, window_fraction * t_star))
    # the variance integrand loses meaning once shed radiation reaches the box
    # edge and its samples turn NaN; the concavity test reads the second
    # differences of finite samples only
    finite = np.isfinite(log.variance[(log.times >= window[0]) & (log.times <= window[1])])
    coverage = float(finite.mean())
    try:
        max_vdd = float(virial_series(log, window=window).second_derivative.max())
    except ValueError:
        # no three consecutive finite samples in the window
        max_vdd = math.nan
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
            "window_coverage": coverage,
        },
    )
