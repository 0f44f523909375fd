"""Variational functionals for the coupled system.

With U = (u1, u2) and 1 < p, beta >= 0:

    F(U) = (1/2p) (||u1||_2p^2p + ||u2||_2p^2p + 2 beta int |u1|^p |u2|^p)
    E(U) = 1/2 ||grad U||_2^2 - F(U)                       (conserved energy)
    I(U) = E(U) + 1/2 (omega1 ||u1||_2^2 + omega2 ||u2||_2^2)   (action)
    R(U) = ||grad U||_2^2 - n (p-1) F(U)                   (virial functional)

The Nehari pairing <I'(U), U> = ||grad U||_2^2 + ||U||_{2,omega}^2 - 2p F(U)
splits into per-component parts matching the two coupled elliptic equations;
a standing-wave profile makes both parts vanish.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from .core import FieldPair, Grid, SystemParams, _density, _fft, _integral, relative_error
from .errors import BoundaryDecayError

__all__ = [
    "coupling_F",
    "coupling_gradient",
    "energy_E",
    "action_I",
    "virial_R",
    "nehari_pairing",
    "partial_pairings",
    "PohozaevCheck",
    "pohozaev_check",
    "boundary_amplitude_ratio",
    "variance",
    "FunctionalReport",
]

BOUNDARY_DECAY_TOL = 1e-8


def _power(m: np.ndarray, e: float) -> np.ndarray:
    """m**e for m >= 0. The exponents 0, 1/2, 1, 3/2, 2, 3 and 4, which
    p = 2, 3, 4 produce (and p - 1 at p = 3/2), are formed by products and
    one square root, several times cheaper than a float pow; any other
    goes to **. Exponent 0 gives the scalar 1, exponent 1 m itself."""
    if e == 0.0:
        return 1.0
    if e == 0.5:
        return np.sqrt(m)
    if e == 1.0:
        return m
    if e == 1.5:
        return m * np.sqrt(m)
    if e == 2.0:
        return m * m
    if e == 3.0:
        return m * m * m
    if e == 4.0:
        return np.square(m * m)
    return m**e


def _density_sums(grid: Grid, m1: np.ndarray, m2: np.ndarray, p: float):
    """Quadrature values of int |u1|^2p, int |u2|^2p, int |u1|^p |u2|^p
    from the squared moduli m1 = |u1|^2 and m2 = |u2|^2."""
    return (
        _integral(grid, _power(m1, p)),
        _integral(grid, _power(m2, p)),
        _integral(grid, _power(m1 * m2, 0.5 * p)),
    )


def _coupling(params: SystemParams, i1: float, i2: float, cross: float) -> float:
    """F(U) from i_j = int |u_j|^2p and cross = int |u1|^p |u2|^p."""
    return (i1 + i2 + 2.0 * params.beta * cross) / (2.0 * params.p)


def _energy(grad, f_val):
    """E(U) from ||grad U||^2 and F(U)."""
    return 0.5 * grad - f_val


def _virial(grad, f_val, dim: int, p: float):
    """R(U) from ||grad U||^2 and F(U); also elementwise over sampled series."""
    return grad - dim * (p - 1.0) * f_val


def _potential(grid: Grid, m1: np.ndarray, m2: np.ndarray, params: SystemParams) -> float:
    """F(U) from the squared moduli m1 = |u1|^2 and m2 = |u2|^2."""
    return _coupling(params, *_density_sums(grid, m1, m2, params.p))


def coupling_F(pair: FieldPair, params: SystemParams) -> float:
    """Nonlinear potential F(U)."""
    return _potential(pair.grid, _density(pair.c1), _density(pair.c2), params)


def _rates(m1: np.ndarray, m2: np.ndarray, params: SystemParams):
    """The real rates A_j = |u_j|^(2p-2) + beta |u_k|^p |u_j|^(p-2) of the
    two coupled equations, from the squared moduli m_j = |u_j|^2 as
    A_j = m_j^(p-1) + beta m_k^(p/2) m_j^(p/2-1). The gradient of F is
    (A1 u1, A2 u2), and the nonlinear substep of the Schrodinger flow is
    u_j -> exp(i dt A_j) u_j. A rate may be m_j itself (p = 2, beta = 0),
    so callers do not write into it.

    For p < 2 the factor |u_j|^(p-2) diverges at zeros of u_j, where A_j
    only ever multiplies a zero value; there the base is taken as inf, so
    the factor is 0.
    """
    p, beta = params.p, params.beta
    r1 = _power(m1, p - 1.0)
    r2 = _power(m2, p - 1.0)
    if beta != 0.0:
        c1 = beta * _power(m2, 0.5 * p)
        c2 = beta * _power(m1, 0.5 * p)
        # at p = 2 the factor m_j^(p/2-1) is 1
        if p != 2.0:
            b1, b2 = m1, m2
            if p < 2:
                b1 = np.where(m1 > 0, m1, np.inf)
                b2 = np.where(m2 > 0, m2, np.inf)
            c1 = c1 * _power(b1, 0.5 * p - 1.0)
            c2 = c2 * _power(b2, 0.5 * p - 1.0)
        r1 = r1 + c1
        r2 = r2 + c2
    return r1, r2


def coupling_gradient(pair: FieldPair, params: SystemParams):
    """Gradient of F: the right-hand sides of the two coupled equations,

        g1 = (|u1|^(2p-2) + beta |u1|^(p-2) |u2|^p) u1   and symmetrically g2.
    """
    r1, r2 = _rates(_density(pair.c1), _density(pair.c2), params)
    return r1 * pair.c1, r2 * pair.c2


@dataclass(frozen=True)
class _Norms:
    """Quadrature values of a state U = (u1, u2) on a dim-dimensional grid:
    grad_j = ||grad u_j||^2, m_j = ||u_j||^2, i_j = int |u_j|^2p and
    cross = int |u1|^p |u2|^p. Every scalar functional, pairing and
    constraint of the package is an algebraic function of these seven
    numbers."""

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
        i1, i2, cross = _density_sums(grid, _density(pair.c1), _density(pair.c2), params.p)
        s1 = _density(u1h)
        grad1, m1 = float(np.sum(grid.k2 * s1) * w), float(np.sum(s1) * w)
        s2 = _density(u2h)
        grad2, m2 = float(np.sum(grid.k2 * s2) * w), float(np.sum(s2) * w)
        return cls(params, grid.dim, grad1, grad2, m1, m2, i1, i2, cross)

    @classmethod
    def measure(cls, pair, params):
        """Measure pair, transforming each component once."""
        return cls.of(params, pair, _fft(pair.grid, pair.c1), _fft(pair.grid, pair.c2))

    def scaled(self, t1, t2):
        """The values for (t1 u1, t2 u2). The powers are taken in numpy
        floats, so one that overflows gives inf (or nan against a zero
        component), not OverflowError; the flows reject the non-finite
        objective that follows."""
        p = self.params.p
        t1, t2 = np.float64(t1), np.float64(t2)
        with np.errstate(over="ignore", invalid="ignore"):
            values = dict(
                grad1=t1**2 * self.grad1,
                grad2=t2**2 * self.grad2,
                m1=t1**2 * self.m1,
                m2=t2**2 * self.m2,
                i1=t1 ** (2 * p) * self.i1,
                i2=t2 ** (2 * p) * self.i2,
                cross=t1**p * t2**p * self.cross,
            )
        return replace(self, **{k: float(v) for k, v in values.items()})

    @property
    def F(self):
        return _coupling(self.params, self.i1, self.i2, self.cross)

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
        return _energy(self.grad, self.F)

    @property
    def action(self):
        return self.energy + 0.5 * self.weighted_mass

    @property
    def virial(self):
        return _virial(self.grad, self.F, self.dim, self.params.p)

    @property
    def pairing(self):
        """<I'(U), U> = ||grad U||^2 + ||U||_{2,omega}^2 - 2p F(U)."""
        return self.h1 - 2.0 * self.params.p * self.F

    @property
    def partial_pairings(self):
        """Per-component pairings; the cross term beta int |u1|^p |u2|^p is
        charged once to each component, matching the structure of the two
        coupled equations."""
        a1, a2 = self.h1_parts
        shared = self.params.beta * self.cross
        return a1 - self.i1 - shared, a2 - self.i2 - shared

    def partitions(self, m):
        """The three identities of a zero-virial critical point at action
        level m, as (value, target) pairs:

            ||grad U||^2 = n m,  F(U) = m/(p-1),  ||U||_{2,omega}^2 = (2p/(p-1) - n) m.
        """
        p, n = self.params.p, self.dim
        return (
            (self.grad, n * m),
            (self.F, m / (p - 1.0)),
            (self.weighted_mass, (2.0 * p / (p - 1.0) - n) * m),
        )


def energy_E(pair: FieldPair, params: SystemParams) -> float:
    return _Norms.measure(pair, params).energy


def action_I(pair: FieldPair, params: SystemParams) -> float:
    return _Norms.measure(pair, params).action


def virial_R(pair: FieldPair, params: SystemParams) -> float:
    return _Norms.measure(pair, params).virial


def nehari_pairing(pair: FieldPair, params: SystemParams) -> float:
    """<I'(U), U> = ||grad U||^2 + ||U||_{2,omega}^2 - 2p F(U)."""
    return _Norms.measure(pair, params).pairing


def partial_pairings(pair: FieldPair, params: SystemParams) -> tuple[float, float]:
    """Per-component pairings; both vanish on a standing-wave profile."""
    return _Norms.measure(pair, params).partial_pairings


@dataclass(frozen=True)
class PohozaevCheck:
    """Relative residuals of the three free-critical-point identities

        ||grad U||_2^2 = n m,   F(U) = m/(p-1),   ||U||_{2,omega}^2 = (2p/(p-1) - n) m

    for a claimed action level m. A non-positive m is flagged, never passed.
    """

    residual_gradient: float
    residual_coupling: float
    residual_mass: float
    m_positive: bool
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.residual_gradient, self.residual_coupling, self.residual_mass)

    @property
    def ok(self) -> bool:
        return self.m_positive and self.max_residual <= self.tol


def pohozaev_check(pair: FieldPair, params: SystemParams, m: float, *, tol: float = 1e-6) -> PohozaevCheck:
    if m <= 0:
        return PohozaevCheck(np.inf, np.inf, np.inf, m_positive=False, tol=tol)
    residuals = (relative_error(v, t) for v, t in _Norms.measure(pair, params).partitions(m))
    return PohozaevCheck(*residuals, m_positive=True, tol=tol)


def _amplitude_ratio(grid: Grid, dens: np.ndarray) -> float:
    """Max combined amplitude on the outermost grid layer over the global
    max, from the combined density |u1|^2 + |u2|^2."""
    peak = float(dens.max())
    if peak == 0.0:
        return 0.0
    return math.sqrt(float(dens[grid.boundary_mask()].max()) / peak)


def boundary_amplitude_ratio(pair: FieldPair) -> float:
    """Max combined amplitude on the outermost grid layer over the global max."""
    return _amplitude_ratio(pair.grid, _density(pair.c1) + _density(pair.c2))


def _variance(grid: Grid, dens: np.ndarray, boundary_tol: float = BOUNDARY_DECAY_TOL) -> float:
    """variance() from the combined density |u1|^2 + |u2|^2."""
    ratio = _amplitude_ratio(grid, dens)
    if ratio >= boundary_tol:
        raise BoundaryDecayError(
            f"boundary amplitude is {ratio:.3e} of the peak (tolerance {boundary_tol:.1e}); "
            "variance would be contaminated by wrap-around"
        )
    return _integral(grid, grid.radius_sq() * dens)


def variance(pair: FieldPair, *, boundary_tol: float = BOUNDARY_DECAY_TOL) -> float:
    """V(U) = int |x|^2 (|u1|^2 + |u2|^2), x measured from the box center.

    Refuses when the field has not decayed at the boundary (relative
    amplitude >= boundary_tol), since the periodic image would corrupt the
    moment.
    """
    return _variance(pair.grid, _density(pair.c1) + _density(pair.c2), boundary_tol)


@dataclass(frozen=True)
class FunctionalReport:
    """All scalar diagnostics of a field pair. I = E + weighted_mass/2 holds
    by construction."""

    coupling: float
    energy: float
    action: float
    virial: float
    mass1: float
    mass2: float
    weighted_mass: float
    nehari_pairing: float
    pairing1: float
    pairing2: float

    CSV_HEADER = "F,E,I,R,mass1,mass2,weighted_mass,nehari_pairing,pairing1,pairing2"

    @classmethod
    def compute(cls, pair: FieldPair, params: SystemParams) -> "FunctionalReport":
        n = _Norms.measure(pair, params)
        p1, p2 = n.partial_pairings
        return cls(
            coupling=n.F,
            energy=n.energy,
            action=n.action,
            virial=n.virial,
            mass1=n.m1,
            mass2=n.m2,
            weighted_mass=n.weighted_mass,
            nehari_pairing=n.pairing,
            pairing1=p1,
            pairing2=p2,
        )

    def csv_row(self) -> str:
        return ",".join(f"{v:.17g}" for v in astuple(self))
