"""Constrained minimization by projected imaginary-time flow.

One scheme drives every constrained problem: a semi-implicit step

    u_hat <- (u_hat + dt g_hat) / (1 + dt (|k|^2 + lam_j)),

with g the nonlinear gradient of F, followed by an exact projection back
onto the constraint set (scalar rescalings; for the two-sided Nehari set,
one root of a scalar equation in log(t2/t1)). The step size doubles after
every accepted step and halves until the objective stops increasing, so the
recorded objective history is monotone up to roundoff.

A mass sphere is read as rows ((a1, a2), c), each the condition
a1 ||u1||^2 + a2 ||u2||^2 = c with one multiplier nu: the weighted sphere
is ((omega1, omega2), gamma), product and equal spheres are ((1, 0), delta1)
and ((0, 1), delta2), less the second for a pinned component (delta2 = 0).
No component lies on two rows.

The effective frequencies lam_j keep constrained problems honest: on a row
the minimizer solves -Lap u_j + nu a_j u_j = g_j with an unknown nu, and a
plain (1 + dt(|k|^2 + omega_j)) step has no fixed point there unless
nu a_j = omega_j. Feeding the running estimate back through lam_j = nu a_j
restores the correct fixed points, and holding it in the denominator keeps
the step unconditionally stable for nu > 1; a component the minimizer
abandons then dies geometrically at every step size instead of only below
dt = 2/(nu-1). A component on no row keeps lam_j = omega_j: ray-projected
critical points (Nehari, Pohozaev) solve the equation with nu = 1 exactly.

Convergence is declared on the strong-form residual r_j = (-Lap + lam_j) u_j
- g_j, evaluated spectrally and projected off each row's normal
(a1 u1, a2 u2); the reported quantity is ||r||_2 / ||U||_{H_omega}.

The step multiplier, the rates of g, the scalings and the residual are all
real, so the flow acts on the real and imaginary parts of U alike and keeps
a real state real. It runs in real arithmetic on one stacked state U of
shape (r, q, *shape), the component on axis 0 and its real rows on axis 1.
A component that starts exactly zero stays exactly zero under the flow,
so U holds only the r components in core._populated's slice, the rule
evolve shares: r = 1 for a scalar or an all-zero start (which fails in
its first projection) and r = 2 otherwise. q = 1 for a real start
(every gaussian_init start), and q = 2 (real and imaginary parts)
otherwise. One call of the real pair core._rfft / core._irfft transforms
the populated components onto the (r, q, *half) half spectrum, whose
Parseval sums weigh each column by its multiplicity in the full spectrum.
The absent component adds exact zeros to every sum, and a real start's
minimizer has imaginary parts exactly 0.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

import numpy as np

from .core import (_COLUMNS, _SEED, FieldPair, Grid, SystemParams, _blocks, _check_number, _density, _embed,
                   _fft, _half_weights, _irfft, _MODE_ROWS, _moduli, _parseval_sums, _per_component,
                   _periodic, _populated, _rfft, _tree_sum)
from .errors import ConstraintError, ConvergenceError, GridMismatchError
from .functionals import _gradient, _Norms, _rates

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
# every kind, each the name of its ConstraintSpec factory
_KINDS = _SPHERE_KINDS + ("nehari", "nehari_set", "pohozaev")

# the rule of each size a factory reads, as _check_number's (need, accepts):
# gamma and delta1 are finite and positive, and delta2 = 0 pins the second
# component
_SIZE_RULES = {"delta2": ("be >= 0 and finite", lambda d: 0.0 <= d < math.inf)}

_DT0 = 0.25
_DT_MAX = 16.0
_DT_MIN = 1e-12

# longer flows are refused up front: at 0.15-0.3 ms an iteration on a
# 64-point 1d grid (2-core x86_64) they would run for more than four hours
_MAX_ITER = 10**8

# a flow whose residual has not fallen below (1 - _STALL_GAIN) times its
# lowest value for _STALL_ITER iterations in a row has stalled, and stops
_STALL_ITER = 1000
_STALL_GAIN = 1e-6

# a component holding less than this fraction of the total mass counts as absent
VECTOR_MASS_FRACTION = 0.05

# largest relative gap between multiplier_extract's two estimates
_CROSS_TOL = 1e-6


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

    The flow reads a sphere kind only as its rows of mass conditions (see
    the module docstring); delta2 = 0 pins the second component to zero.
    """

    kind: str
    gamma: float | None = None
    delta1: float | None = None
    delta2: float | None = None

    def __post_init__(self):
        """Refuse a kind outside _KINDS and any size its factory does not
        read, and read each size it does through its rule, so a spec built
        directly holds what its factory would."""
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {', '.join(_KINDS)}, got {self.kind!r}")
        reads = inspect.signature(getattr(ConstraintSpec, self.kind)).parameters
        for key in ("gamma", "delta1", "delta2"):
            value = getattr(self, key)
            if key in reads:
                value = _check_number(value, key, *_SIZE_RULES.get(key, ()))
            elif self.kind == "equal_spheres" and key == "delta2":
                # equal spheres hold delta1 as delta2 too
                if value is not None and _check_number(value, key) != self.delta1:
                    raise ValueError(f"equal_spheres needs delta2 = delta1 = {self.delta1!r}, got {value!r}")
                value = self.delta1
            elif value is not None:
                raise ValueError(f"{self.kind} reads no {key}, got {key}={value!r}")
            object.__setattr__(self, key, value)

    @classmethod
    def weighted_sphere(cls, gamma: float) -> "ConstraintSpec":
        return cls("weighted_sphere", gamma=gamma)

    @classmethod
    def product_spheres(cls, delta1: float, delta2: float) -> "ConstraintSpec":
        return cls("product_spheres", delta1=delta1, delta2=delta2)

    @classmethod
    def equal_spheres(cls, delta1: float) -> "ConstraintSpec":
        return cls("equal_spheres", delta1=delta1)

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
        if self.kind not in _SPHERE_KINDS and not params.existence_ok(dim):
            # at and above the energy-critical exponent the ray sets hold
            # no decaying minimizer, and a flow would only stall
            raise ConstraintError(
                f"no decaying minimizers: p={params.p} is not below n/(n - 2) = {dim / (dim - 2):g} "
                f"in dimension {dim}"
            )
        if self.kind == "pohozaev" and crit != "supercritical":
            raise ConstraintError(
                f"the Pohozaev set constraint needs p > 1 + 2/n; "
                f"p={params.p} in dimension {dim} is {crit}"
            )

    def describe(self) -> str:
        sizes = {"gamma": self.gamma, "delta1": self.delta1, "delta2": self.delta2}
        args = ", ".join(f"{key}={value:g}" for key, value in sizes.items() if value is not None)
        return f"{self.kind}({args})" if args else self.kind


@dataclass(frozen=True)
class MinimizeResult:
    """Outcome of a constrained flow.

    value is the minimized objective (E on sphere constraints, I otherwise);
    action and energy are always both reported. multipliers holds (nu,) for
    the weighted sphere and (nu1, nu2) for product spheres (nan for a pinned
    component); ray constraints carry no multiplier. classification is
    'scalar_first', 'scalar_second' or 'vector' by component mass fraction.
    history holds the objective at the start and after each accepted step,
    residual_history the relative residual of each iteration (the last is
    residual), and rejected_trials the number of step sizes the line search
    halved away.
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
    residual_history: np.ndarray
    rejected_trials: int


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
    are exactly zero so that flows preserve scalar subspaces. seed is a
    non-negative integer."""
    if mode not in ("first", "second", "both", "paired"):
        raise ValueError(
            f"mode must be 'first', 'second', 'both' or 'paired', got {mode!r}"
        )
    rng = np.random.default_rng(_check_number(seed, "seed", **_SEED))
    base = np.exp(-0.5 * grid.radius_sq())
    held = _MODE_ROWS[mode]
    rows = [base * (1.0 + 1e-6 * rng.standard_normal(grid.shape)) for _ in range(2)[held]]
    if mode == "paired":
        rows[1] = rows[0]
    return FieldPair(grid, *_per_component(held, rows, np.zeros(grid.shape)))


# ---------------------------------------------------------------------------
# projections


def _nehari_set_scalings(p, a1, a2, b1, b2, c, t0):
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
    """A root of h: probes x0 -/+ 2^k/64 bracket a sign change, none beyond
    |x - x0| = 2048, where e^x exceeds any ratio of two floats, and halving
    the bracket on the sign of h narrows it below 1e-15 + 4 eps |x|.
    Raises ConstraintError where h is NaN or no probe brackets a root."""

    def sign(x):
        # signs, not products, which underflow where H is roundoff
        hx = h(x)
        if math.isnan(hx):
            raise ConstraintError(f"the Nehari scaling equation is NaN at log-ratio {x}")
        return np.sign(hx)

    s0 = sign(x0)
    # the farthest probes left and right of x0 at which h keeps the sign s0
    ends = [x0, x0]
    for side, step in ((side, 2.0**j / 64.0) for j in range(18) for side in (0, 1)):
        xb = x0 + step if side else x0 - step
        if sign(xb) != s0:
            break
        ends[side] = xb
    else:
        raise ConstraintError("the scaling orbit misses the two-sided Nehari set")
    xa = ends[side]
    while True:
        x = 0.5 * (xa + xb)
        if abs(xb - xa) < 1e-15 + 4.0 * math.ulp(1.0) * abs(x):
            return x
        if sign(x) == s0:
            xa = x
        else:
            xb = x


def _objective(constraint, norms):
    """E on sphere constraints, I otherwise."""
    return norms.energy if constraint.kind in _SPHERE_KINDS else norms.action


def _spheres(constraint, params):
    """The mass-sphere rows ((a1, a2), c) of a constraint, each the
    condition a1 ||u1||^2 + a2 ||u2||^2 = c: the one table of the sphere
    kinds that the flow reads."""
    if constraint.kind == "weighted_sphere":
        return (((params.omega1, params.omega2), constraint.gamma),)
    if constraint.kind in ("product_spheres", "equal_spheres"):
        rows = (((1.0, 0.0), constraint.delta1), ((0.0, 1.0), constraint.delta2))
        return rows[:1] if constraint.pinned else rows
    return ()


def _weigh(weights, values):
    """a1 v1 + a2 v2, to which a zero weight adds nothing, not even a NaN."""
    return sum(a * v for a, v in zip(weights, values) if a)


def _multipliers(constraint, norms):
    """(nu,) on the weighted sphere and (nu1, nu2) on product spheres (nan
    for a pinned component), from testing the constrained equation against
    U; () on ray constraints."""
    if constraint.kind == "weighted_sphere":
        return ((2.0 * norms.params.p * norms.F - norms.grad) / constraint.gamma,)
    shared = norms.params.beta * norms.cross
    tested = (norms.i1 + shared - norms.grad1, norms.i2 + shared - norms.grad2)
    nus = tuple(_weigh(a, tested) / c for a, c in _spheres(constraint, norms.params))
    return nus + (math.nan,) if constraint.pinned else nus


def _constraint_residual(constraint, norms):
    """Relative distance of U from the constraint set."""
    kind = constraint.kind
    spheres = _spheres(constraint, norms.params)
    if spheres:
        gaps = [abs(_weigh(a, (norms.m1, norms.m2)) - c) / c for a, c in spheres]
        # a pinned component's mass must vanish
        return max(gaps + [abs(norms.m2)] if constraint.pinned else gaps)
    if kind == "nehari":
        return abs(norms.pairing) / norms.h1
    if kind == "pohozaev":
        return abs(norms.virial) / norms.grad
    return max(abs(q) / a for q, a in zip(norms.partial_pairings, norms.h1_parts))


def _scalings(constraint, norms, warm=(1.0, 1.0)):
    """The factors (t1, t2) that carry U onto the constraint set, on a mass
    sphere sqrt(c / (a1 m1 + a2 m2)) on the components each row weighs. A
    factor that overflows or underflows (a power 1/(2p-2) for p near 1
    does) raises ConstraintError; only a pinned component's factor is 0."""
    kind = constraint.kind
    p = norms.params.p
    spheres = _spheres(constraint, norms.params)
    if spheres:
        t1 = t2 = 0.0
        for a, c in spheres:
            mass = _weigh(a, (norms.m1, norms.m2))
            if mass <= 0:
                what = "the zero field" if all(a) else "a vanishing component"
                raise ConstraintError(f"cannot project {what} onto a mass sphere")
            t1, t2 = (math.sqrt(c / mass) if w else t for w, t in zip(a, (t1, t2)))
    elif kind in ("nehari", "pohozaev"):
        if norms.F <= 0:
            raise ConstraintError(f"{kind.capitalize()} projection needs F(U) > 0")
        num, den = (norms.h1, 2.0 * p) if kind == "nehari" else (norms.grad, norms.dim * (p - 1.0))
        t1 = t2 = _root(num / (den * norms.F), 2.0 * p - 2.0)
    else:
        # nehari_set, the last kind: ConstraintSpec refuses any other
        shared = norms.params.beta * norms.cross
        t1, t2 = _nehari_set_scalings(p, *norms.h1_parts, norms.i1, norms.i2, shared, warm)
    if not (0.0 < t1 < math.inf and (0.0 < t2 < math.inf or (constraint.pinned and t2 == 0.0))):
        raise ConstraintError(
            f"the scalings onto {constraint.describe()} leave the floating-point range: "
            f"(t1, t2) = ({t1:.3g}, {t2:.3g}) at p = {norms.params.p:g}"
        )
    return t1, t2


def _gradient_spectra(grid, params, U):
    """Half spectrum of the coupling gradient (A_j u_j) of the stacked
    state U. Each block of _COLUMNS columns of the gradient's own array
    takes the moduli, then the rates over them, then the product A_j u_j,
    so that besides that array only one block's temporaries are alive."""
    r, q = U.shape[:2]
    out = np.empty_like(U)
    u, g = U.reshape(r, q, -1), out.reshape(r, q, -1)
    for block in _blocks(u.shape[-1], _COLUMNS):
        m = _moduli(u[..., block], out=g[:, 0, block])
        rates = _rates(m, params, 1, out=m)
        # row 0 holds the rates, so it takes its product last
        for j in reversed(range(q)):
            np.multiply(rates, u[:, j, block], out=g[:, j, block])
    return _rfft(grid, out)


def _project_state(constraint, grid, params, Vh, warm, held):
    """Project the raw half spectrum Vh of a stacked state, which holds the
    components in the slice held, onto the constraint set, scaling Vh in
    place once the projection has succeeded. The sums stream over Vh and
    V block by block, so the projection holds V beside Vh and nothing else
    of full size.

    Returns (U, Uh, factors, norms): the projected state, its half spectrum
    (Vh itself), the scalings (t1, t2) and the _Norms of U.
    """
    sums = _parseval_sums(grid, Vh, half=True)
    V = _irfft(grid, Vh)
    raw = _Norms.of(params, grid, held, V, sums)
    t1, t2 = _scalings(constraint, raw, warm)
    t = np.reshape((t1, t2), (2, 1) + (1,) * grid.dim)[held]
    V *= t
    Vh *= t
    return V, Vh, (t1, t2), raw.scaled(t1, t2)


def _effective_frequencies(constraint, norms):
    """The (2, 1, ...) column (lam1, lam2) of the frequencies of the
    constrained equation at the running multiplier estimates, nu a_j on
    each row's components and omega_j elsewhere, for the step guard; the
    residual and the semi-implicit denominator take its held rows."""
    lam = (norms.params.omega1, norms.params.omega2)
    for (a, _), nu in zip(_spheres(constraint, norms.params), _multipliers(constraint, norms)):
        lam = [nu * w if w else om for w, om in zip(a, lam)]
    return np.reshape(lam, (2, 1) + (1,) * norms.dim)


def _residual(constraint, grid, Uh, G, lam, norms, held):
    """The relative residual of the state whose components in the slice
    held Uh holds; lam is their column of frequencies. An absent
    component's dot products are exactly 0 and are left out. Each sphere
    row's normal (a1 u1, a2 u2) is projected off in turn, which is exact
    because the rows are orthogonal. The residual R = (|k|^2 + lam) Uh - G
    and its L2 products with itself and with Uh, over the real rows whose
    half spectra they are, are formed block by block and streamed through
    _tree_sum."""
    spheres = _spheres(constraint, norms.params)
    r = Uh.shape[0]
    u, g = Uh.reshape(r, -1), G.reshape(r, -1)
    k2 = grid.half_k2.reshape(-1)
    lam = lam.reshape(r, 1)

    def leaf(block):
        # the rows |R_i|^2, then, for the spheres, R_i . Uh_i
        buf = np.empty((2 * r if spheres else r, block.stop - block.start))
        ub, gb = u[:, block], g[:, block]
        rate = _periodic(k2, block) + lam
        re = rate * ub.real
        re -= gb.real
        im = np.multiply(rate, ub.imag, out=rate)
        im -= gb.imag
        np.square(re, out=buf[:r])
        buf[:r] += np.square(im)
        if spheres:
            np.multiply(re, ub.real, out=buf[r:])
            buf[r:] += np.multiply(im, ub.imag, out=im)
        buf *= _half_weights(grid, block)
        return buf.sum(axis=1)

    dots = (_tree_sum(u.shape[1], leaf) * (grid.cell_volume / grid.total_points)).tolist()
    # (row of R and Uh, component index) of each held component
    rows = tuple(enumerate(range(2)[held]))
    r_sq = sum(dots[i] for i, _ in rows)
    for a, _ in spheres:
        inner = sum(a[j] * dots[r + i] for i, j in rows if a[j])
        r_sq -= inner**2 / _weigh([aj**2 for aj in a], (norms.m1, norms.m2))
    return math.sqrt(max(r_sq, 0.0) / norms.h1)


def _divide_step(grid, Vh, dt, lam):
    """Vh /= 1 + dt (|k|^2 + lam) in place, block by block of _COLUMNS
    columns of the half spectrum, with lam the held rows' frequencies."""
    r, q = Vh.shape[:2]
    v = Vh.reshape(r, q, -1)
    k2 = grid.half_k2.reshape(-1)
    lam = lam.reshape(r, 1, 1)
    for block in _blocks(k2.size, _COLUMNS):
        v[..., block] /= 1.0 + dt * (k2[block] + lam)


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
    objective bottoms out at a non-critical constrained infimum, and as
    soon as the flow has stalled: _STALL_ITER iterations in a row without
    a residual below (1 - _STALL_GAIN) times the lowest so far. tol must
    be finite and positive, max_iter an integer in [1, 10**8] and seed,
    read when no init is given, a non-negative integer.

    The flow releases each array once it is done with it: the state's
    field before the first trial, the last gradient before the next, and
    a rejected trial's arrays before the retry. Every pointwise pass and
    every integral streams over blocks of the flattened grid axes
    (core._blocks), so no full-size temporary is formed. At its peak the
    flow holds about four real (2, *shape) stacks, or two for a scalar
    start, plus one block's temporaries: in a trial's projection the
    state's, the gradient's and the trial's half spectra and the trial's
    field; in the gradient the state's half spectrum and field and the
    gradient's field and spectrum. On grids of up to 2^14 points one
    gradient block is the whole grid, and the peak stays near five."""
    _check_number(tol, "tol")
    max_iter = _check_number(max_iter, "max_iter", f"be an integer in [1, {_MAX_ITER}]",
                             lambda n: 1 <= n <= _MAX_ITER, integer=True)
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

    # the flow acts on real and imaginary parts alike, so a real start is
    # held as one real row per populated component and any other start as
    # two; a component that starts exactly zero stays so and has no row
    C = init.components
    held = _populated(C, grid)
    C = C[held]
    Vh = _rfft(grid, C.real[:, None] if not C.imag.any() else np.stack((C.real, C.imag), axis=1))
    # the flow needs only the start's spectrum; a start built here would
    # otherwise hold one more (2, *shape) complex stack through the flow
    del init, C
    # each projection's scalings warm-start the next (only nehari_set reads them)
    U, Uh, factors, norms = _project_state(constraint, grid, params, Vh, (1.0, 1.0), held)
    obj = _objective(constraint, norms)
    if not math.isfinite(obj):
        raise ConvergenceError("objective is not finite at the starting point")
    history = [obj]
    residuals = []
    rejected = 0
    slack = 4.0 * np.finfo(float).eps
    dt = _DT0
    rel_res = best = math.inf
    # iterations since the residual last fell below (1 - _STALL_GAIN) x best
    stall = 0
    iterations = 0
    converged = False

    for iterations in range(1, max_iter + 1):
        G = _gradient_spectra(grid, params, U)
        lam = _effective_frequencies(constraint, norms)
        rel_res = _residual(constraint, grid, Uh, G, lam[held], norms, held)
        residuals.append(rel_res)
        if rel_res < tol:
            converged = True
            break
        stall = 0 if rel_res < (1.0 - _STALL_GAIN) * best else stall + 1
        best = min(best, rel_res)
        if stall == _STALL_ITER:
            raise ConvergenceError(
                f"flow on {constraint.describe()} stalled at relative residual {rel_res:.3e} "
                f"(tolerance {tol:.1e}) after {iterations} iterations: none of the last "
                f"{_STALL_ITER} fell below (1 - {_STALL_GAIN:g}) times the lowest, {best:.3e}"
            )

        # the trials read only Uh and G, and U is read again only on
        # convergence, so the state's fields go before the first trial
        # allocates (the last accepted projection holds them too)
        U = projected = None
        accepted = False
        while dt >= _DT_MIN:
            # the multiplier must sit in the denominator: treated explicitly
            # it caps the stable step at 2/(nu - 1) and a dying component
            # flip-flops at the cap instead of vanishing. The guard reads
            # both frequencies, an absent component's too
            if (1.0 + dt * lam > 1e-12).all():
                # a rejected attempt's fields must not stay alive through the
                # retry, where they would add two stacks to the peak
                Vh = projected = None
                # (Uh + dt G) / (1 + dt (|k|^2 + lam)), formed in dt G
                Vh = dt * G
                Vh += Uh
                _divide_step(grid, Vh, dt, lam[held])
                try:
                    projected = _project_state(constraint, grid, params, Vh, factors, held)
                except ConstraintError:
                    pass
                else:
                    obj_new = _objective(constraint, projected[3])
                    if math.isfinite(obj_new) and obj_new <= obj + slack * max(1.0, abs(obj)):
                        accepted = True
                        break
            dt *= 0.5
            rejected += 1
        if not accepted:
            break
        U, Uh, factors, norms = projected
        obj = obj_new
        history.append(obj)
        dt = min(dt * 2.0, _DT_MAX)
        # the next gradient allocates with this one released
        G = None

    if not converged:
        raise ConvergenceError(
            f"flow on {constraint.describe()} stopped at relative residual {rel_res:.3e} "
            f"(tolerance {tol:.1e}) after {iterations} iterations; the constrained "
            "infimum may not be a critical point at these parameters"
        )
    # the result reads U and norms only, so the spectra go before the
    # minimizer's complex pair is built
    G = Uh = Vh = projected = None

    return MinimizeResult(
        minimizer=_embed(grid, U[:, 0] + 1j * U[:, 1] if U.shape[1] == 2 else U[:, 0], held),
        value=_objective(constraint, norms),
        action=norms.action,
        energy=norms.energy,
        multipliers=_multipliers(constraint, norms),
        iterations=iterations,
        residual=rel_res,
        constraint_residual=_constraint_residual(constraint, norms),
        history=np.asarray(history, dtype=float),
        classification=_classify(norms.m1, norms.m2),
        residual_history=np.asarray(residuals, dtype=float),
        rejected_trials=rejected,
    )


def _scale_onto(constraint: ConstraintSpec, pair: FieldPair, params: SystemParams):
    """Scale the components of pair onto the set of a ray constraint, which
    is validated first; returns ((t1 u1, t2 u2), (t1, t2))."""
    constraint.validate(params, pair.grid.dim)
    t = _scalings(constraint, _Norms.measure(pair, params))
    factors = np.reshape(t, (2,) + (1,) * pair.grid.dim)
    return FieldPair._finite(pair.grid, factors * pair.components), t


def nehari_project(pair: FieldPair, params: SystemParams) -> tuple[FieldPair, float]:
    """Scale U along its ray onto the Nehari set; returns (tU, t)."""
    on_ray, (t, _) = _scale_onto(ConstraintSpec.nehari(), pair, params)
    return on_ray, t


def pohozaev_project(pair: FieldPair, params: SystemParams) -> tuple[FieldPair, float]:
    """Scale U along its ray onto the Pohozaev set; returns (tU, t)."""
    on_ray, (t, _) = _scale_onto(ConstraintSpec.pohozaev(), pair, params)
    return on_ray, t


def nehari_set_project(pair: FieldPair, params: SystemParams) -> tuple[FieldPair, tuple[float, float]]:
    """Scale the components separately onto the two-sided Nehari set;
    returns ((t1 u1, t2 u2), (t1, t2)), with t2/t1 the root nearest 1 of
    the scaling equation. Both components must be nonzero."""
    return _scale_onto(ConstraintSpec.nehari_set(), pair, params)


def ground_state(
    params: SystemParams,
    grid: Grid,
    *,
    tol: float = 1e-8,
    max_iter: int = 200_000,
    seed: int = 0,
) -> MinimizeResult:
    """Minimize the action over the Nehari set from three starts (each pure
    component and a synchronized pair) and keep the lowest level. Levels
    within 16 eps |lowest| of the lowest tie, and a tie goes to the earliest
    start (first, second, both). The scalar starts stay scalar under the
    flow, so the comparison scalar-vs-vector is decided by the final
    levels, not by the basin of the starting guess.
    The starts run in turn; a scalar start's flow holds its one populated
    component only. tol and max_iter are limited as in minimize_on, whose
    first call refuses them before any flow runs; seed, a non-negative
    integer, is read before the starts offset it."""
    seed = _check_number(seed, "seed", **_SEED)
    results = [
        minimize_on(
            ConstraintSpec.nehari(),
            params,
            grid,
            init=gaussian_init(grid, params, mode=mode, seed=seed + idx),
            tol=tol,
            max_iter=max_iter,
        )
        for idx, mode in enumerate(("first", "second", "both"))
    ]
    # the mirror scalar starts reach the same level up to a few ulps, so
    # the earliest start takes a tie and roundoff does not pick the
    # populated component
    lowest = min(r.action for r in results)
    tie = lowest + 16.0 * np.finfo(float).eps * abs(lowest)
    return next(r for r in results if r.action <= tie)


def multiplier_extract(pair: FieldPair, params: SystemParams, constraint: ConstraintSpec) -> tuple:
    """Recover the Lagrange multipliers of a sphere-constrained critical
    point two independent ways (plain and gradient-weighted least squares on
    the strong-form residual) and insist they agree to a relative 1e-6.
    Ray constraints carry no multiplier and are refused."""
    spheres = _spheres(constraint, params)
    if not spheres:
        raise ConstraintError("multipliers are defined for sphere constraints only")
    grid = pair.grid
    k2 = grid.k2
    Uh = _fft(grid, pair.components)
    Gh = _fft(grid, _gradient(pair, params))

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
        if abs(nu_a - nu_b) > _CROSS_TOL * max(1.0, abs(nu_a)):
            raise ConvergenceError(
                f"multiplier estimates disagree ({nu_a:.8g} vs {nu_b:.8g}); "
                "the field is not a constrained critical point"
            )
        return nu_a

    # one fit per row, over the components it weighs; a pinned one has none
    nus = tuple(fits(*((Uh[j], Gh[j], a[j]) for j in range(2) if a[j])) for a, _ in spheres)
    return nus + (math.nan,) if constraint.pinned else nus
