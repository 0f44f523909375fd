"""Constrained minimization by projected imaginary-time flow.

One scheme drives every constrained problem: a semi-implicit step

    u_hat <- (u_hat + dt g_hat) / (1 + dt (|k|^2 + omega_j - shift_j)),

with g the nonlinear gradient of F, followed by an exact projection back
onto the constraint set (scalar rescalings; a 2x2 Newton solve for the
two-sided Nehari set). The step size doubles after every accepted step and
halves until the objective stops increasing, so the recorded objective
history is monotone up to roundoff.

The shift term keeps constrained problems honest: on mass spheres the
minimizer solves -Lap u_j + nu omega_j u_j = g_j with an unknown multiplier
nu, and a plain (1 + dt(|k|^2 + omega_j)) step has no fixed point there
unless nu = 1. Feeding the running multiplier estimate back through
shift_j = (1 - nu) omega_j (per component for product spheres) restores the
correct fixed points, and folding it into the denominator keeps the step
unconditionally stable for nu > 1; a component the minimizer abandons then
dies geometrically at every step size instead of only below dt = 2/(nu-1).
Ray-projected constraints (Nehari, Pohozaev) need no shift: their critical
points solve the equation with nu = 1 exactly.

Convergence is declared on the strong-form residual r_j = (-Lap + lam_j) u_j
- g_j, evaluated spectrally and, for sphere constraints, projected off the
constraint normals; the reported quantity is ||r||_2 / ||U||_{H_omega}.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.fft import fftn, ifftn

from .core import FieldPair, Grid, SystemParams
from .errors import ConstraintError, ConvergenceError, GridMismatchError
from .functionals import _coupling_sums, coupling_gradient

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
_RAY_KINDS = ("nehari", "nehari_set", "pohozaev")

_DT_MIN = 1e-12

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


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


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


def _nehari_set_scalings(p, a1, a2, b1, b2, c, t0=(1.0, 1.0), *, tol=1e-13, max_iter=100):
    """Positive (t1, t2) with t_j^2 a_j = t_j^(2p) b_j + t_1^p t_2^p c,
    by damped Newton in log coordinates. Monotone in both variables since
    c >= 0, so the damped iteration is robust from any warm start."""
    if min(a1, a2, b1, b2) <= 0:
        raise ConstraintError("the two-sided Nehari projection needs both components nonzero")
    q = 2.0 * p - 2.0
    if c == 0.0:
        return (a1 / b1) ** (1.0 / q), (a2 / b2) ** (1.0 / q)
    xi = np.log(np.asarray(t0, dtype=float))

    def balance(xi):
        # np.exp, not math.exp: overflow must yield inf for the damping
        # loop to reject, not raise
        e1 = float(np.exp(q * xi[0]))
        e2 = float(np.exp(q * xi[1]))
        e12 = float(np.exp((p - 2.0) * xi[0] + p * xi[1]))
        e21 = float(np.exp(p * xi[0] + (p - 2.0) * xi[1]))
        g = np.array([a1 - b1 * e1 - c * e12, a2 - b2 * e2 - c * e21])
        return g, (e1, e2, e12, e21)

    g, es = balance(xi)
    for _ in range(max_iter):
        if max(abs(g[0]) / a1, abs(g[1]) / a2) < tol:
            return math.exp(xi[0]), math.exp(xi[1])
        e1, e2, e12, e21 = es
        jac = np.array(
            [
                [-q * b1 * e1 - (p - 2.0) * c * e12, -p * c * e12],
                [-p * c * e21, -q * b2 * e2 - (p - 2.0) * c * e21],
            ]
        )
        # lstsq instead of solve: the jacobian degenerates on symmetric
        # iterates when the cross term matches the self terms (p=2, beta=1)
        step = np.linalg.lstsq(jac, -g, rcond=None)[0]
        gn = float(np.hypot(g[0], g[1]))
        damp = 1.0
        while damp > 1e-8:
            with np.errstate(over="ignore"):
                g_new, es_new = balance(xi + damp * step)
            if np.all(np.isfinite(g_new)) and float(np.hypot(g_new[0], g_new[1])) < gn:
                break
            damp *= 0.5
        else:
            raise ConvergenceError("two-sided Nehari projection stalled")
        xi = xi + damp * step
        g, es = g_new, es_new
    raise ConvergenceError("two-sided Nehari projection did not converge")


@dataclass(frozen=True)
class _Norms:
    """Quadrature values of a state U = (u1, u2) on a dim-dimensional grid:
    grad_j = ||grad u_j||^2, m_j = ||u_j||^2, i_j = int |u_j|^2p and
    cross = int |u1|^p |u2|^p. Every functional and constraint of the
    flows is an algebraic function of these seven numbers."""

    params: SystemParams
    dim: int
    grad1: float
    grad2: float
    m1: float
    m2: float
    i1: float
    i2: float
    cross: float

    @classmethod
    def of(cls, params, pair, u1h, u2h):
        """Measure pair, whose spectra are u1h and u2h."""
        grid = pair.grid
        w = grid.cell_volume / grid.total_points
        i1, i2, cross = _coupling_sums(pair, params)
        s1 = _abs2(u1h)
        grad1, m1 = float(np.sum(grid.k2 * s1) * w), float(np.sum(s1) * w)
        s2 = _abs2(u2h)
        grad2, m2 = float(np.sum(grid.k2 * s2) * w), float(np.sum(s2) * w)
        return cls(params, grid.dim, grad1, grad2, m1, m2, i1, i2, cross)

    def scaled(self, t1, t2):
        """The values for (t1 u1, t2 u2)."""
        p = self.params.p
        return replace(
            self,
            grad1=t1**2 * self.grad1,
            grad2=t2**2 * self.grad2,
            m1=t1**2 * self.m1,
            m2=t2**2 * self.m2,
            i1=t1 ** (2 * p) * self.i1,
            i2=t2 ** (2 * p) * self.i2,
            cross=t1**p * t2**p * self.cross,
        )

    @property
    def F(self):
        return (self.i1 + self.i2 + 2.0 * self.params.beta * self.cross) / (2.0 * self.params.p)

    @property
    def grad(self):
        return self.grad1 + self.grad2

    @property
    def h1_parts(self):
        """(||grad u1||^2 + omega1 ||u1||^2, same for u2)."""
        return (
            self.grad1 + self.params.omega1 * self.m1,
            self.grad2 + self.params.omega2 * self.m2,
        )

    @property
    def weighted_mass(self):
        return self.params.omega1 * self.m1 + self.params.omega2 * self.m2

    @property
    def h1(self):
        return self.grad + self.weighted_mass

    @property
    def energy(self):
        return 0.5 * self.grad - self.F

    @property
    def action(self):
        return self.energy + 0.5 * self.weighted_mass

    def objective(self, constraint):
        """E on sphere constraints, I otherwise."""
        return self.energy if constraint.kind in _SPHERE_KINDS else self.action

    def multipliers(self, constraint):
        """(nu,) on the weighted sphere and (nu1, nu2) on product spheres
        (nan for a pinned component), from testing the constrained
        equation against U; () on ray constraints."""
        kind = constraint.kind
        beta = self.params.beta
        if kind == "weighted_sphere":
            return ((2.0 * self.params.p * self.F - self.grad) / constraint.gamma,)
        if kind in ("product_spheres", "equal_spheres"):
            nu1 = (self.i1 + beta * self.cross - self.grad1) / constraint.delta1
            if constraint.delta2 == 0.0:
                return nu1, math.nan
            return nu1, (self.i2 + beta * self.cross - self.grad2) / constraint.delta2
        return ()

    def constraint_residual(self, constraint):
        """Relative distance of U from the constraint set."""
        kind = constraint.kind
        if kind == "weighted_sphere":
            return abs(self.weighted_mass - constraint.gamma) / constraint.gamma
        if kind in ("product_spheres", "equal_spheres"):
            r1 = abs(self.m1 - constraint.delta1) / constraint.delta1
            r2 = (
                abs(self.m2 - constraint.delta2) / constraint.delta2
                if constraint.delta2 > 0
                else abs(self.m2)
            )
            return max(r1, r2)
        if kind == "nehari":
            return abs(self.h1 - 2.0 * self.params.p * self.F) / self.h1
        if kind == "pohozaev":
            return abs(self.grad - self.dim * (self.params.p - 1.0) * self.F) / self.grad
        a1, a2 = self.h1_parts
        beta = self.params.beta
        return max(
            abs(a1 - self.i1 - beta * self.cross) / a1,
            abs(a2 - self.i2 - beta * self.cross) / a2,
        )


def _scalings(constraint, norms, warm=(1.0, 1.0)):
    """The factors (t1, t2) that carry U onto the constraint set."""
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
        t = ratio ** (1.0 / (2.0 * p - 2.0))
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
    v1, v2 = ifftn(v1h), ifftn(v2h)
    raw = _Norms.of(params, FieldPair(grid, v1, v2, copy=False, check=False), v1h, v2h)
    t1, t2 = _scalings(constraint, raw, warm)
    for z, t in ((v1, t1), (v2, t2), (v1h, t1), (v2h, t2)):
        z *= t
    U = FieldPair(grid, v1, v2, copy=False, check=False)
    return U, (v1h, v2h), (t1, t2), raw.scaled(t1, t2)


def _multiplier_shifts(constraint, norms):
    """(lam1, lam2, shift1, shift2): effective frequencies for the residual
    and the multiplier shifts folded into the semi-implicit denominator."""
    w1, w2 = norms.params.omega1, norms.params.omega2
    nus = norms.multipliers(constraint)
    if constraint.kind == "weighted_sphere":
        (nu,) = nus
        return nu * w1, nu * w2, (1.0 - nu) * w1, (1.0 - nu) * w2
    if nus:
        nu1, nu2 = nus
        # a pinned component keeps its own frequency
        if math.isnan(nu2):
            nu2 = w2
        return nu1, nu2, w1 - nu1, w2 - nu2
    return w1, w2, 0.0, 0.0


def _residual(constraint, grid, u1h, u2h, g1h, g2h, lam1, lam2, norms):
    k2 = grid.k2
    w = grid.cell_volume / grid.total_points
    r1h = (k2 + lam1) * u1h - g1h
    r2h = (k2 + lam2) * u2h - g2h
    r_sq = float((np.sum(_abs2(r1h)) + np.sum(_abs2(r2h))) * w)
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


def minimize_on(
    constraint: ConstraintSpec,
    params: SystemParams,
    grid: Grid,
    *,
    init: FieldPair | None = None,
    tol: float = 1e-8,
    max_iter: int = 200_000,
    dt0: float = 0.25,
    dt_max: float = 16.0,
    seed: int = 0,
    record_history: bool = True,
) -> MinimizeResult:
    """Run the projected flow for one constraint. Raises ConvergenceError
    if the residual tolerance is not reached, including the case where the
    objective bottoms out at a non-critical constrained infimum."""
    constraint.validate(params, grid.dim)
    if init is None:
        if constraint.kind in ("product_spheres", "equal_spheres") and constraint.delta2 == 0.0:
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

    warm = (1.0, 1.0)
    U, (u1h, u2h), factors, norms = _project_state(
        constraint, grid, params, fftn(init.c1), fftn(init.c2), warm
    )
    if constraint.kind == "nehari_set":
        warm = factors
    obj = norms.objective(constraint)
    if not math.isfinite(obj):
        raise ConvergenceError("objective is not finite at the starting point")
    history = [obj] if record_history else []
    slack = 4.0 * np.finfo(float).eps
    dt = dt0
    rel_res = math.inf
    iterations = 0
    converged = False

    for iterations in range(1, max_iter + 1):
        g1h, g2h = map(fftn, coupling_gradient(U, params))
        lam1, lam2, shift1, shift2 = _multiplier_shifts(constraint, norms)
        rel_res = _residual(constraint, grid, u1h, u2h, g1h, g2h, lam1, lam2, norms)
        if rel_res < tol:
            converged = True
            break

        accepted = False
        while dt >= _DT_MIN:
            # the multiplier shift must sit in the denominator: treated
            # explicitly it caps the stable step at 2/(nu - 1) and a dying
            # component flip-flops at the cap instead of vanishing
            if (
                1.0 + dt * (params.omega1 - shift1) <= 1e-12
                or 1.0 + dt * (params.omega2 - shift2) <= 1e-12
            ):
                dt *= 0.5
                continue
            v1h = (u1h + dt * g1h) / (1.0 + dt * (grid.k2 + params.omega1 - shift1))
            v2h = (u2h + dt * g2h) / (1.0 + dt * (grid.k2 + params.omega2 - shift2))
            try:
                projected = _project_state(constraint, grid, params, v1h, v2h, warm)
            except (ConstraintError, ConvergenceError):
                dt *= 0.5
                continue
            obj_new = projected[3].objective(constraint)
            if math.isfinite(obj_new) and obj_new <= obj + slack * max(1.0, abs(obj)):
                accepted = True
                break
            dt *= 0.5
        if not accepted:
            break
        U, (u1h, u2h), factors, norms = projected
        obj = obj_new
        if constraint.kind == "nehari_set":
            warm = factors
        if record_history:
            history.append(obj)
        dt = min(dt * 2.0, dt_max)

    if not converged:
        raise ConvergenceError(
            f"flow on {constraint.describe()} stopped at relative residual {rel_res:.3e} "
            f"(tolerance {tol:.1e}) after {iterations} iterations; the constrained "
            "infimum may not be a critical point at these parameters"
        )

    return MinimizeResult(
        minimizer=U,
        value=norms.objective(constraint),
        action=norms.action,
        energy=norms.energy,
        multipliers=norms.multipliers(constraint),
        iterations=iterations,
        residual=rel_res,
        constraint_residual=norms.constraint_residual(constraint),
        history=np.asarray(history, dtype=float),
        classification=_classify(norms.m1, norms.m2),
    )


def _measure(pair, params):
    return _Norms.of(params, pair, fftn(pair.c1), fftn(pair.c2))


def nehari_project(pair: FieldPair, params: SystemParams) -> tuple[FieldPair, float]:
    """Scale U along its ray onto the Nehari set; returns (tU, t)."""
    t, _ = _scalings(ConstraintSpec.nehari(), _measure(pair, params))
    return t * pair, t


def pohozaev_project(pair: FieldPair, params: SystemParams) -> tuple[FieldPair, float]:
    """Scale U along its ray onto the Pohozaev set; returns (tU, t)."""
    if params.criticality(pair.grid.dim) != "supercritical":
        raise ConstraintError("the Pohozaev set is only constraining for p > 1 + 2/n")
    t, _ = _scalings(ConstraintSpec.pohozaev(), _measure(pair, params))
    return t * pair, t


def nehari_set_project(
    pair: FieldPair, params: SystemParams, *, t0: tuple[float, float] = (1.0, 1.0)
) -> tuple[FieldPair, tuple[float, float]]:
    """Scale the components separately onto the two-sided Nehari set;
    returns ((t1 u1, t2 u2), (t1, t2)). Both components must be nonzero."""
    t1, t2 = _scalings(ConstraintSpec.nehari_set(), _measure(pair, params), t0)
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
    decided by the final levels, not by the basin of the starting guess."""
    starts = ("first", "second", "both")

    def run(idx_mode):
        idx, mode = idx_mode
        init = gaussian_init(grid, params, mode=mode, seed=seed + idx)
        return minimize_on(
            ConstraintSpec.nehari(), params, grid, init=init, tol=tol, max_iter=max_iter
        )

    with ThreadPoolExecutor(max_workers=threads or len(starts)) as pool:
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
    u1h = fftn(pair.c1)
    u2h = fftn(pair.c2)
    g1h, g2h = map(fftn, coupling_gradient(pair, params))

    def fits(*terms):
        # least-squares nu in (k^2 + nu omega_j) u_j = g_j over the given
        # (u_hat, g_hat, omega) terms, under two spectral weights
        out = []
        for wt in (1.0, k2 + 1.0):
            num = den = 0.0
            for uh, gh, om in terms:
                rh = gh - k2 * uh
                num += om * float(np.sum(wt * (rh.real * uh.real + rh.imag * uh.imag)))
                den += om**2 * float(np.sum(wt * _abs2(uh)))
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
