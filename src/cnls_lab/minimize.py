"""Constrained minimization by projected imaginary-time flow.

One scheme drives every constrained problem: a semi-implicit step

    u_hat <- (u_hat + dt g_hat) / (1 + dt (|k|^2 + lam_j)),

with g the nonlinear gradient of F, followed by an exact projection back
onto the constraint set (scalar rescalings; for the two-sided Nehari set,
one root of a scalar equation in log(t2/t1)). The step size doubles after
every accepted step and halves until the objective stops increasing, so the
recorded objective history is monotone up to roundoff.

The effective frequencies lam_j keep constrained problems honest: on mass
spheres the minimizer solves -Lap u_j + nu omega_j u_j = g_j with an
unknown multiplier nu, and a plain (1 + dt(|k|^2 + omega_j)) step has no
fixed point there unless nu = 1. Feeding the running multiplier estimate
back through lam_j = nu omega_j (lam_j = nu_j on product spheres) restores
the correct fixed points, and holding it in the denominator keeps the step
unconditionally stable for nu > 1; a component the minimizer abandons then
dies geometrically at every step size instead of only below dt = 2/(nu-1).
Ray-projected constraints (Nehari, Pohozaev) keep lam_j = omega_j: their
critical points solve the equation with nu = 1 exactly.

Convergence is declared on the strong-form residual r_j = (-Lap + lam_j) u_j
- g_j, evaluated spectrally and, for sphere constraints, projected off the
constraint normals; the reported quantity is ||r||_2 / ||U||_{H_omega}.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .core import FieldPair, Grid, SystemParams, _density, _fft, _ifft
from .errors import ConstraintError, ConvergenceError, GridMismatchError
from .functionals import _Norms, coupling_gradient

__all__ = [
    "ConstraintSpec",
    "MinimizeResult",
    "minimize_on",
    "ground_state",
    "gaussian_init",
    "nehari_project",
    "nehari_set_project",
    "pohozaev_project",
    "multiplier_extract",
    "VECTOR_MASS_FRACTION",
]

_SPHERE_KINDS = ("weighted_sphere", "product_spheres", "equal_spheres")

_DT0 = 0.25
_DT_MAX = 16.0
_DT_MIN = 1e-12

# longer flows are refused up front: at about 0.2 ms an iteration on a
# 64-point grid they would run for more than five hours
_MAX_ITER = 10**8

# a component holding less than this fraction of the total mass counts as absent
VECTOR_MASS_FRACTION = 0.05


@dataclass(frozen=True)
class ConstraintSpec:
    """One of the admissible constraint sets.

    kind:
        weighted_sphere   omega1 ||u1||^2 + omega2 ||u2||^2 = gamma (minimizes E)
        product_spheres   ||u1||^2 = delta1, ||u2||^2 = delta2     (minimizes E)
        equal_spheres     product spheres with delta1 = delta2      (minimizes E)
        nehari            <I'(U), U> = 0                            (minimizes I)
        nehari_set        both partial pairings vanish              (minimizes I)
        pohozaev          ||grad U||^2 = n(p-1) F(U)                (minimizes I)
    """

    kind: str
    gamma: float | None = None
    delta1: float | None = None
    delta2: float | None = None

    @classmethod
    def weighted_sphere(cls, gamma: float) -> "ConstraintSpec":
        if not gamma > 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        return cls("weighted_sphere", gamma=float(gamma))

    @classmethod
    def product_spheres(cls, delta1: float, delta2: float) -> "ConstraintSpec":
        # delta2 = 0 pins the second component to zero (scalar problem)
        if not delta1 > 0:
            raise ValueError(f"delta1 must be positive, got {delta1}")
        if delta2 < 0:
            raise ValueError(f"delta2 must be >= 0, got {delta2}")
        return cls("product_spheres", delta1=float(delta1), delta2=float(delta2))

    @classmethod
    def equal_spheres(cls, delta: float) -> "ConstraintSpec":
        if not delta > 0:
            raise ValueError(f"delta must be positive, got {delta}")
        return cls("equal_spheres", delta1=float(delta), delta2=float(delta))

    @classmethod
    def nehari(cls) -> "ConstraintSpec":
        return cls("nehari")

    @classmethod
    def nehari_set(cls) -> "ConstraintSpec":
        return cls("nehari_set")

    @classmethod
    def pohozaev(cls) -> "ConstraintSpec":
        return cls("pohozaev")

    @property
    def pinned(self) -> bool:
        """Whether delta2 = 0 pins the second component to zero."""
        return self.kind == "product_spheres" and self.delta2 == 0.0

    def validate(self, params: SystemParams, dim: int) -> None:
        crit = params.criticality(dim)
        if self.kind in _SPHERE_KINDS and crit != "subcritical":
            raise ConstraintError(
                f"sphere-constrained minimization needs p < 1 + 2/n; "
                f"p={params.p} in dimension {dim} is {crit}"
            )
        if self.kind in ("nehari", "nehari_set") and not params.existence_ok(dim):
            raise ConstraintError(
                f"no decaying minimizers: p={params.p} is not below {dim}/{dim - 2}"
            )
        if self.kind == "pohozaev" and crit != "supercritical":
            raise ConstraintError(
                f"the Pohozaev set constraint needs p > 1 + 2/n; "
                f"p={params.p} in dimension {dim} is {crit}"
            )

    def describe(self) -> str:
        if self.kind == "weighted_sphere":
            return f"weighted_sphere(gamma={self.gamma:g})"
        if self.kind in ("product_spheres", "equal_spheres"):
            return f"{self.kind}(delta1={self.delta1:g}, delta2={self.delta2:g})"
        return self.kind


@dataclass(frozen=True)
class MinimizeResult:
    """Outcome of a constrained flow.

    value is the minimized objective (E on sphere constraints, I otherwise);
    action and energy are always both reported. multipliers holds (nu,) for
    the weighted sphere and (nu1, nu2) for product spheres (nan for a pinned
    component); ray constraints carry no multiplier. classification is
    'scalar_first', 'scalar_second' or 'vector' by component mass fraction.
    """

    minimizer: FieldPair
    value: float
    action: float
    energy: float
    multipliers: tuple
    iterations: int
    residual: float
    constraint_residual: float
    history: np.ndarray
    classification: str


def _classify(m1: float, m2: float) -> str:
    total = m1 + m2
    if m2 < VECTOR_MASS_FRACTION * total:
        return "scalar_first"
    if m1 < VECTOR_MASS_FRACTION * total:
        return "scalar_second"
    return "vector"


def gaussian_init(
    grid: Grid, params: SystemParams, *, mode: str = "both", seed: int = 0
) -> FieldPair:
    """Gaussian starting data exp(-|x|^2/2) with a small seeded multiplicative
    jitter. mode selects which components are populated ('first', 'second',
    'both', or 'paired' for bit-identical components); unpopulated components
    are exactly zero so that flows preserve scalar subspaces."""
    if mode not in ("first", "second", "both", "paired"):
        raise ValueError(
            f"mode must be 'first', 'second', 'both' or 'paired', got {mode!r}"
        )
    rng = np.random.default_rng(seed)
    base = np.exp(-0.5 * grid.radius_sq())
    zero = np.zeros(grid.shape)
    if mode == "first":
        c1, c2 = base * (1.0 + 1e-6 * rng.standard_normal(grid.shape)), zero
    elif mode == "second":
        c1, c2 = zero, base * (1.0 + 1e-6 * rng.standard_normal(grid.shape))
    elif mode == "paired":
        c1 = base * (1.0 + 1e-6 * rng.standard_normal(grid.shape))
        c2 = c1.copy()
    else:
        c1 = base * (1.0 + 1e-6 * rng.standard_normal(grid.shape))
        c2 = base * (1.0 + 1e-6 * rng.standard_normal(grid.shape))
    return FieldPair(grid, c1, c2, copy=False)


# ---------------------------------------------------------------------------
# projections


def _nehari_set_scalings(p, a1, a2, b1, b2, c, t0=(1.0, 1.0)):
    """Positive (t1, t2) with t_j^2 a_j = t_j^(2p) b_j + t_1^p t_2^p c.

    With r = t2/t1, t1^(2p-2) = a1 / (b1 + c r^p) solves the first equation,
    and the pair reduces to H(r) = a1 b2 r^p + a1 c - a2 c r^2 - a2 b1 r^(2-p)
    = 0, solved for the root nearest the warm ratio t0[1]/t0[0]. For c > 0
    and p != 2, H changes sign between r -> 0 and r -> inf, so a root exists
    (at beta = p - 1 a proportional pair's is a triple root, which bracketing
    still finds); at p = 2, H = A r^2 + B misses when A and B share a sign.
    """
    if min(a1, a2, b1, b2) <= 0:
        raise ConstraintError("the two-sided Nehari projection needs both components nonzero")
    q = 2.0 * p - 2.0
    if c == 0.0:
        return _root(a1 / b1, q), _root(a2 / b2, q)
    la1, la2, lb1, lb2, lc = (math.log(v) for v in (a1, a2, b1, b2, c))
    # the terms of H(e^x) as (log coefficient, power of r), positive then negative
    logs = (la1 + lb2, la1 + lc, la2 + lc, la2 + lb1)
    powers = (p, 0.0, 2.0, 2.0 - p)

    def h(x):
        # H(e^x) over its largest term, so that no x overflows
        e = [lg + k * x for lg, k in zip(logs, powers)]
        top = max(e)
        t = [math.exp(v - top) for v in e]
        return t[0] + t[1] - t[2] - t[3]

    x = math.log(t0[1] / t0[0])
    # H vanishing at the warm ratio within the roundoff of its terms and of
    # their quadratures keeps it: at p = 2, beta = 1, H is zero for every r
    # on proportional components, and every r then solves the pair
    if abs(h(x)) > 64.0 * np.finfo(float).eps:
        x = _root_near(h, x)
    lt1 = (la1 - np.logaddexp(lb1, lc + p * x)) / q
    with np.errstate(over="ignore"):
        return float(np.exp(lt1)), float(np.exp(lt1 + x))


def _root(x, q):
    """x^(1/q) for x > 0, in numpy floats: inf or 0 where it leaves the
    floating-point range, as it does for q near 0, where a float ** raises."""
    with np.errstate(over="ignore", under="ignore"):
        return float(np.float64(x) ** (1.0 / q))


def _root_near(h, x0):
    """A root of h bracketed by probes x0 -/+ 2^k/64 and refined by brentq;
    none beyond |x - x0| = 2048, where e^x exceeds any ratio of two floats."""
    ends = [(x0, h(x0))] * 2
    step = 1.0 / 64.0
    while step <= 2048.0:
        for i, xb in enumerate((x0 - step, x0 + step)):
            (xa, ha), hb = ends[i], h(xb)
            # signs, not the product, which underflows where H is roundoff
            if np.sign(ha) != np.sign(hb):
                return brentq(h, min(xa, xb), max(xa, xb), xtol=1e-15, maxiter=200)
            ends[i] = (xb, hb)
        step *= 2.0
    raise ConstraintError("the scaling orbit misses the two-sided Nehari set")


def _objective(constraint, norms):
    """E on sphere constraints, I otherwise."""
    return norms.energy if constraint.kind in _SPHERE_KINDS else norms.action


def _multipliers(constraint, norms):
    """(nu,) on the weighted sphere and (nu1, nu2) on product spheres (nan
    for a pinned component), from testing the constrained equation against
    U; () on ray constraints."""
    kind = constraint.kind
    beta = norms.params.beta
    if kind == "weighted_sphere":
        return ((2.0 * norms.params.p * norms.F - norms.grad) / constraint.gamma,)
    if kind in ("product_spheres", "equal_spheres"):
        nu1 = (norms.i1 + beta * norms.cross - norms.grad1) / constraint.delta1
        if constraint.delta2 == 0.0:
            return nu1, math.nan
        return nu1, (norms.i2 + beta * norms.cross - norms.grad2) / constraint.delta2
    return ()


def _constraint_residual(constraint, norms):
    """Relative distance of U from the constraint set."""
    kind = constraint.kind
    if kind == "weighted_sphere":
        return abs(norms.weighted_mass - constraint.gamma) / constraint.gamma
    if kind in ("product_spheres", "equal_spheres"):
        r1 = abs(norms.m1 - constraint.delta1) / constraint.delta1
        r2 = (
            abs(norms.m2 - constraint.delta2) / constraint.delta2
            if constraint.delta2 > 0
            else abs(norms.m2)
        )
        return max(r1, r2)
    if kind == "nehari":
        return abs(norms.pairing) / norms.h1
    if kind == "pohozaev":
        return abs(norms.virial) / norms.grad
    return max(abs(q) / a for q, a in zip(norms.partial_pairings, norms.h1_parts))


def _scalings(constraint, norms, warm=(1.0, 1.0)):
    """The factors (t1, t2) that carry U onto the constraint set. A factor
    that overflows or underflows (a power 1/(2p-2) for p near 1 does)
    raises ConstraintError; only a pinned component's factor is 0."""
    t1, t2 = _unchecked_scalings(constraint, norms, warm)
    if not (0.0 < t1 < math.inf and (0.0 < t2 < math.inf or (constraint.pinned and t2 == 0.0))):
        raise ConstraintError(
            f"the scalings onto {constraint.describe()} leave the floating-point range: "
            f"(t1, t2) = ({t1:.3g}, {t2:.3g}) at p = {norms.params.p:g}"
        )
    return t1, t2


def _unchecked_scalings(constraint, norms, warm):
    kind = constraint.kind
    p = norms.params.p
    if kind == "weighted_sphere":
        if norms.weighted_mass <= 0:
            raise ConstraintError("cannot project the zero field onto a mass sphere")
        t = math.sqrt(constraint.gamma / norms.weighted_mass)
        return t, t
    if kind in ("product_spheres", "equal_spheres"):
        pinned = constraint.delta2 == 0.0
        if norms.m1 <= 0 or (norms.m2 <= 0 and not pinned):
            raise ConstraintError("cannot project a vanishing component onto a mass sphere")
        t2 = 0.0 if pinned else math.sqrt(constraint.delta2 / norms.m2)
        return math.sqrt(constraint.delta1 / norms.m1), t2
    if kind in ("nehari", "pohozaev"):
        if norms.F <= 0:
            name = "Nehari" if kind == "nehari" else "Pohozaev"
            raise ConstraintError(f"{name} projection needs F(U) > 0")
        if kind == "nehari":
            ratio = norms.h1 / (2.0 * p * norms.F)
        else:
            ratio = norms.grad / (norms.dim * (p - 1.0) * norms.F)
        t = _root(ratio, 2.0 * p - 2.0)
        return t, t
    if kind == "nehari_set":
        a1, a2 = norms.h1_parts
        return _nehari_set_scalings(
            p, a1, a2, norms.i1, norms.i2, norms.params.beta * norms.cross, warm
        )
    raise ValueError(f"unknown constraint kind {kind!r}")


def _project_state(constraint, grid, params, v1h, v2h, warm):
    """Project raw spectra onto the constraint set, scaling v1h and v2h in
    place once the projection has succeeded.

    Returns (U, (u1h, u2h), factors, norms): the projected state, its
    spectra, the scalings (t1, t2) and the _Norms of U.
    """
    v1, v2 = _ifft(grid, v1h), _ifft(grid, v2h)
    raw = _Norms.of(params, FieldPair(grid, v1, v2, copy=False, check=False), v1h, v2h)
    t1, t2 = _scalings(constraint, raw, warm)
    for z, t in ((v1, t1), (v2, t2), (v1h, t1), (v2h, t2)):
        z *= t
    U = FieldPair(grid, v1, v2, copy=False, check=False)
    return U, (v1h, v2h), (t1, t2), raw.scaled(t1, t2)


def _effective_frequencies(constraint, norms):
    """(lam1, lam2): the frequencies of the constrained equation at the
    running multiplier estimate, for the residual and the semi-implicit
    denominator."""
    w1, w2 = norms.params.omega1, norms.params.omega2
    nus = _multipliers(constraint, norms)
    if constraint.kind == "weighted_sphere":
        (nu,) = nus
        return nu * w1, nu * w2
    if nus:
        nu1, nu2 = nus
        # a pinned component keeps its own frequency
        return nu1, w2 if math.isnan(nu2) else nu2
    return w1, w2


def _residual(constraint, grid, u1h, u2h, g1h, g2h, lam1, lam2, norms):
    k2 = grid.k2
    w = grid.cell_volume / grid.total_points
    r1h = (k2 + lam1) * u1h - g1h
    r2h = (k2 + lam2) * u2h - g2h
    r_sq = float((np.sum(_density(r1h)) + np.sum(_density(r2h))) * w)
    kind = constraint.kind
    if kind == "weighted_sphere":
        w1, w2 = norms.params.omega1, norms.params.omega2
        inner = float(
            (
                w1 * np.sum(r1h.real * u1h.real + r1h.imag * u1h.imag)
                + w2 * np.sum(r2h.real * u2h.real + r2h.imag * u2h.imag)
            )
            * w
        )
        nn = w1**2 * norms.m1 + w2**2 * norms.m2
        r_sq -= inner**2 / nn
    elif kind in ("product_spheres", "equal_spheres"):
        for rh, uh, mass in ((r1h, u1h, norms.m1), (r2h, u2h, norms.m2)):
            if mass > 0:
                inner = float(np.sum(rh.real * uh.real + rh.imag * uh.imag) * w)
                r_sq -= inner**2 / mass
    return math.sqrt(max(r_sq, 0.0) / norms.h1)


def _check_flow_limits(tol, max_iter):
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not 1 <= max_iter <= _MAX_ITER:
        raise ValueError(f"max_iter = {max_iter} is outside [1, {_MAX_ITER}]")


def minimize_on(
    constraint: ConstraintSpec,
    params: SystemParams,
    grid: Grid,
    *,
    init: FieldPair | None = None,
    tol: float = 1e-8,
    max_iter: int = 200_000,
    seed: int = 0,
) -> MinimizeResult:
    """Run the projected flow for one constraint. Raises ConvergenceError
    if the residual tolerance is not reached, including the case where the
    objective bottoms out at a non-critical constrained infimum. tol must
    be finite and positive, and max_iter at most 10**8."""
    _check_flow_limits(tol, max_iter)
    constraint.validate(params, grid.dim)
    if init is None:
        if constraint.pinned:
            mode = "first"
        elif constraint.kind == "nehari_set":
            # identical components: the two-sided projection degenerates on
            # asymmetric data when the cross term matches the self terms
            # (p=2, beta=1), and the minimizer is synchronized anyway
            mode = "paired"
        else:
            mode = "both"
        init = gaussian_init(grid, params, mode=mode, seed=seed)
    if init.grid != grid:
        raise GridMismatchError(f"init lives on {init.grid!r}, expected {grid!r}")

    # each projection's scalings warm-start the next (only nehari_set reads them)
    U, (u1h, u2h), factors, norms = _project_state(
        constraint, grid, params, _fft(grid, init.c1), _fft(grid, init.c2), (1.0, 1.0)
    )
    obj = _objective(constraint, norms)
    if not math.isfinite(obj):
        raise ConvergenceError("objective is not finite at the starting point")
    history = [obj]
    slack = 4.0 * np.finfo(float).eps
    dt = _DT0
    rel_res = math.inf
    iterations = 0
    converged = False

    for iterations in range(1, max_iter + 1):
        g1h, g2h = (_fft(grid, g) for g in coupling_gradient(U, params))
        lam1, lam2 = _effective_frequencies(constraint, norms)
        rel_res = _residual(constraint, grid, u1h, u2h, g1h, g2h, lam1, lam2, norms)
        if rel_res < tol:
            converged = True
            break

        accepted = False
        while dt >= _DT_MIN:
            # the multiplier must sit in the denominator: treated explicitly
            # it caps the stable step at 2/(nu - 1) and a dying component
            # flip-flops at the cap instead of vanishing
            if 1.0 + dt * lam1 <= 1e-12 or 1.0 + dt * lam2 <= 1e-12:
                dt *= 0.5
                continue
            v1h = (u1h + dt * g1h) / (1.0 + dt * (grid.k2 + lam1))
            v2h = (u2h + dt * g2h) / (1.0 + dt * (grid.k2 + lam2))
            # a rejected attempt's fields must not stay alive through the
            # retry, where they would add four arrays to the peak
            projected = None
            try:
                projected = _project_state(constraint, grid, params, v1h, v2h, factors)
            except ConstraintError:
                dt *= 0.5
                continue
            obj_new = _objective(constraint, projected[3])
            if math.isfinite(obj_new) and obj_new <= obj + slack * max(1.0, abs(obj)):
                accepted = True
                break
            dt *= 0.5
        if not accepted:
            break
        U, (u1h, u2h), factors, norms = projected
        obj = obj_new
        history.append(obj)
        dt = min(dt * 2.0, _DT_MAX)

    if not converged:
        raise ConvergenceError(
            f"flow on {constraint.describe()} stopped at relative residual {rel_res:.3e} "
            f"(tolerance {tol:.1e}) after {iterations} iterations; the constrained "
            "infimum may not be a critical point at these parameters"
        )

    return MinimizeResult(
        minimizer=U,
        value=_objective(constraint, norms),
        action=norms.action,
        energy=norms.energy,
        multipliers=_multipliers(constraint, norms),
        iterations=iterations,
        residual=rel_res,
        constraint_residual=_constraint_residual(constraint, norms),
        history=np.asarray(history, dtype=float),
        classification=_classify(norms.m1, norms.m2),
    )


def nehari_project(pair: FieldPair, params: SystemParams) -> tuple[FieldPair, float]:
    """Scale U along its ray onto the Nehari set; returns (tU, t)."""
    t, _ = _scalings(ConstraintSpec.nehari(), _Norms.measure(pair, params))
    return t * pair, t


def pohozaev_project(pair: FieldPair, params: SystemParams) -> tuple[FieldPair, float]:
    """Scale U along its ray onto the Pohozaev set; returns (tU, t)."""
    if params.criticality(pair.grid.dim) != "supercritical":
        raise ConstraintError("the Pohozaev set is only constraining for p > 1 + 2/n")
    t, _ = _scalings(ConstraintSpec.pohozaev(), _Norms.measure(pair, params))
    return t * pair, t


def nehari_set_project(
    pair: FieldPair, params: SystemParams, *, t0: tuple[float, float] = (1.0, 1.0)
) -> tuple[FieldPair, tuple[float, float]]:
    """Scale the components separately onto the two-sided Nehari set;
    returns ((t1 u1, t2 u2), (t1, t2)). Both components must be nonzero."""
    t1, t2 = _scalings(ConstraintSpec.nehari_set(), _Norms.measure(pair, params), t0)
    return FieldPair(pair.grid, t1 * pair.c1, t2 * pair.c2, copy=False, check=False), (t1, t2)


def ground_state(
    params: SystemParams,
    grid: Grid,
    *,
    tol: float = 1e-8,
    max_iter: int = 200_000,
    seed: int = 0,
    threads: int | None = None,
) -> MinimizeResult:
    """Minimize the action over the Nehari set from three starts (each pure
    component and a synchronized pair) and keep the lowest level. The scalar
    starts stay scalar under the flow, so the comparison scalar-vs-vector is
    decided by the final levels, not by the basin of the starting guess.
    threads (default: one per start) must be at least 1; tol and max_iter
    are limited as in minimize_on."""
    _check_flow_limits(tol, max_iter)
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    starts = ("first", "second", "both")

    def run(idx_mode):
        idx, mode = idx_mode
        init = gaussian_init(grid, params, mode=mode, seed=seed + idx)
        return minimize_on(
            ConstraintSpec.nehari(), params, grid, init=init, tol=tol, max_iter=max_iter
        )

    with ThreadPoolExecutor(max_workers=len(starts) if threads is None else threads) as pool:
        results = list(pool.map(run, enumerate(starts)))
    best = min(range(len(results)), key=lambda i: (results[i].action, i))
    return results[best]


def multiplier_extract(
    pair: FieldPair,
    params: SystemParams,
    constraint: ConstraintSpec,
    *,
    cross_tol: float = 1e-6,
) -> tuple:
    """Recover the Lagrange multipliers of a sphere-constrained critical
    point two independent ways (plain and gradient-weighted least squares on
    the strong-form residual) and insist they agree to cross_tol. Ray
    constraints carry no multiplier and are refused."""
    if constraint.kind not in _SPHERE_KINDS:
        raise ConstraintError("multipliers are defined for sphere constraints only")
    k2 = pair.grid.k2
    u1h, u2h, g1h, g2h = (_fft(pair.grid, f) for f in (*pair.components, *coupling_gradient(pair, params)))

    def fits(*terms):
        # least-squares nu in (k^2 + nu omega_j) u_j = g_j over the given
        # (u_hat, g_hat, omega) terms, under two spectral weights
        out = []
        for wt in (1.0, k2 + 1.0):
            num = den = 0.0
            for uh, gh, om in terms:
                rh = gh - k2 * uh
                num += om * float(np.sum(wt * (rh.real * uh.real + rh.imag * uh.imag)))
                den += om**2 * float(np.sum(wt * _density(uh)))
            out.append(num / den)
        nu_a, nu_b = out
        if abs(nu_a - nu_b) > cross_tol * max(1.0, abs(nu_a)):
            raise ConvergenceError(
                f"multiplier estimates disagree ({nu_a:.8g} vs {nu_b:.8g}); "
                "the field is not a constrained critical point"
            )
        return nu_a

    if constraint.kind == "weighted_sphere":
        return (fits((u1h, g1h, params.omega1), (u2h, g2h, params.omega2)),)
    return tuple(
        math.nan if delta == 0.0 else fits((uh, gh, 1.0))
        for uh, gh, delta in ((u1h, g1h, constraint.delta1), (u2h, g2h, constraint.delta2))
    )
