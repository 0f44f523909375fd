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

from .core import (
    FieldPair,
    Grid,
    SystemParams,
    _cell,
    _density,
    _fft,
    _integral,
    _moduli,
    _parseval_sums,
    _per_component,
    _real_rows,
    _tree_sum,
    relative_error,
)
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

# largest relative residual at which pohozaev_check passes
_POHOZAEV_TOL = 1e-6


def _power(m: np.ndarray, e: float, out: np.ndarray | None = None) -> np.ndarray:
    """m**e for m >= 0, written into out when it is given; out may be m
    itself. The exponents 0, 1/2, 1, 3/2, 2, 3 and 4, which p = 2, 3, 4
    produce, and 3/4, which p = 3/2 adds, are formed by products and square
    roots, several times cheaper than a float pow (and than its slow path
    on the exact zeros and infinities of a scalar state); any other goes to
    pow. Exponent 1 gives m itself, so an out given for it is m. Every
    exponent asked for is positive: _rates returns at p = 2 before the
    factor m^(p/2 - 1) would ask for exponent 0. Without out, each
    exponent allocates its result and at most one temporary: 3/2 and 3
    finish their product in the array they allocated first."""
    if e == 0.5:
        return np.sqrt(m, out=out)
    if e == 1.0:
        return m
    if e == 1.5:
        root = np.sqrt(m)
        return np.multiply(m, root, out=root if out is None else out)
    if e == 2.0:
        return np.multiply(m, m, out=out)
    if e == 3.0:
        square = m * m
        return np.multiply(square, m, out=square if out is None else out)
    if e == 4.0:
        square = np.multiply(m, m, out=out)
        return np.square(square, out=square)
    if e == 0.75:
        # in place on its own temporaries, which keeps the flows' peak
        # memory where pow left it
        root = np.sqrt(m)
        power = np.sqrt(root, out=out)
        power *= root
        return power
    return np.power(m, e, out=out)


def _density_sums(grid: Grid, U: np.ndarray, held: slice, p: float):
    """Quadrature values of int |u1|^2p, int |u2|^2p, int |u1|^p |u2|^p
    of the state whose components in the slice held are the rows of U, a
    complex (r, *shape) stack or the real (r, q, *shape) one of the flows;
    an absent component contributes exact zeros, as a zero one would. The
    moduli and their powers are formed block by block in one (k, n) array
    and streamed through core._tree_sum, so this allocates blocks only."""
    rows = _real_rows(U)
    r = rows.shape[0]
    # m_j^p for each row, then (m1 m2)^(p/2)
    exponents = (p,) if r == 1 else (p, p, 0.5 * p)

    def leaf(block):
        buf = np.empty((len(exponents), block.stop - block.start))
        m = _moduli(rows[..., block], out=buf[:r])
        if r == 2:
            np.multiply(m[0], m[1], out=buf[2])
        # one row at a time, so that a power's temporaries stay one row
        for row, e in zip(buf, exponents):
            _power(row, e, out=row)
        return buf.sum(axis=1)

    sums = (_tree_sum(rows.shape[-1], leaf) * grid.cell_volume).tolist()
    if r == 1:
        return (*_per_component(held, sums, 0.0), 0.0)
    return tuple(sums)


def _coupling(params: SystemParams, i1: float, i2: float, cross: float) -> float:
    """F(U) from i_j = int |u_j|^2p and cross = int |u1|^p |u2|^p."""
    return (i1 + i2 + 2.0 * params.beta * cross) / (2.0 * params.p)


def _virial(grad, f_val, dim: int, p: float):
    """R(U) from ||grad U||^2 and F(U); also elementwise over sampled series."""
    return grad - dim * (p - 1.0) * f_val


def coupling_F(pair: FieldPair, params: SystemParams) -> float:
    """Nonlinear potential F(U)."""
    return _coupling(params, *_density_sums(pair.grid, pair.components, slice(0, 2), params.p))


def _rates(m: np.ndarray, params: SystemParams, dim: int, *, synchronized: bool = False,
           out: np.ndarray | None = None) -> np.ndarray:
    """The real rates A_j = |u_j|^(2p-2) + beta |u_k|^p |u_j|^(p-2) of the
    coupled equations, from the squared moduli m_j = |u_j|^2 of fields on a
    dim-dimensional grid, stacked on the component axis -1 - dim of m,
    (..., 2, *shape) or (..., 1, *shape), as
    A_j = m_j^(p-1) + beta m_k^(p/2) m_j^(p/2-1); the stacked rates come
    back in m's shape. The partner m_k is read through the reversed
    component axis. A one-row stack holds a component whose partner is
    exactly zero, which adds exactly nothing, so its rate is m_j^(p-1);
    with synchronized=True it holds instead a synchronized pair (u, u), and
    the row is read as its own partner, which gives either component's
    rate bit for bit as a two-row stack of the pair does. The gradient of F
    is (A1 u1, A2 u2), and the nonlinear substep of the Schrodinger flow is
    u_j -> exp(i dt A_j) u_j.

    A caller that owns m passes out=m, as in numpy, and gets the rates
    written over the moduli; besides m, at most one root (or power) and
    the cross term are alive at once. out is m or None, as for _power.
    Without out the rates may be m itself (p = 2 with beta = 0 or a partner
    that is exactly zero), so callers do not write into them unless they
    own m.

    For p < 2 the factor |u_j|^(p-2) diverges at zeros of u_j, where A_j
    only ever multiplies a zero value; there the factor is taken as 0.
    """
    p, beta = params.p, params.beta
    if beta == 0.0 or (m.shape[-1 - dim] == 1 and not synchronized):
        return _power(m, p - 1.0, out=out)
    # one index tuple reverses the component axis of m and of its powers
    # (on a synchronized row it is the identity); it costs less per call
    # than np.flip
    swap = (Ellipsis, slice(None, None, -1)) + (slice(None),) * dim
    # every branch forms the cross term beta m_k^(p/2) m_j^(p/2-1) in place
    # and writes the rates m_j^(p-1) into out only once it has read m for
    # the last time; at p = 2 the factor m_j^(p/2-1) is 1
    if p == 1.5:
        # the rates are s = m^(1/2), the last read of m; one more root
        # r = m^(1/4) gives the partner's m_k^(3/4) = r_k s_k and, inverted,
        # the factor m_j^(-1/4). s is 0 exactly where m is, since the root
        # of a positive double does not underflow
        s = rates = np.sqrt(m, out=out)
        r = np.sqrt(s)
        cross = r[swap] * s[swap]
        cross *= beta
        with np.errstate(divide="ignore"):
            np.divide(1.0, r, out=r)
        r[s == 0] = 0.0
        cross *= r
    else:
        if p == 2.0:
            cross = beta * m[swap]
        elif p == 3.0:
            # one root serves the partner's m_k^(3/2) and the factor m_j^(1/2)
            s = np.sqrt(m)
            cross = m[swap] * s[swap]
            cross *= beta
            cross *= s
        else:
            cross = _power(m[swap], 0.5 * p)
            cross *= beta
            with np.errstate(divide="ignore"):
                factor = _power(m, 0.5 * p - 1.0)
            if p < 2:
                factor[m == 0] = 0.0
            cross *= factor
        # the root or the factor goes before the rates are formed
        s = factor = None
        rates = _power(m, p - 1.0, out=out)
    return np.add(cross, rates, out=cross if out is None else out)


def _gradient(pair: FieldPair, params: SystemParams) -> np.ndarray:
    """The gradient of F as one (2, *shape) stack (g1, g2)."""
    m = _density(pair.components)
    return _rates(m, params, pair.grid.dim, out=m) * pair.components


def coupling_gradient(pair: FieldPair, params: SystemParams):
    """Gradient of F: the right-hand sides of the two coupled equations,

        g1 = (|u1|^(2p-2) + beta |u1|^(p-2) |u2|^p) u1   and symmetrically g2.
    """
    g = _gradient(pair, params)
    return g[0], g[1]


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
    def of(cls, params, grid, held, U, sums):
        """Measure the state whose components in the slice held are the
        rows of U, as _density_sums reads them, and whose Parseval sums are
        sums = core._parseval_sums(...), one entry per held component; the
        other component is exactly zero and adds exact zeros."""
        grads, masses = (_per_component(held, values, 0.0) for values in sums)
        i1, i2, cross = _density_sums(grid, U, held, params.p)
        return cls(params, grid.dim, *grads, *masses, i1, i2, cross)

    @classmethod
    def sampler(cls, params, grid, held, synchronized):
        """The fused kernel, a _Sampler, that measures evolve's whole-step
        samples of a stack holding the components in the slice held, or,
        synchronized, one row that stands for both; other modules reach it
        through _Norms, as they reach every functional."""
        return _Sampler(params, grid, held, synchronized)

    @classmethod
    def measure(cls, pair, params):
        """Measure pair from one stacked transform of its components."""
        grid = pair.grid
        S = _fft(grid, pair.components)
        return cls.of(params, grid, slice(0, 2), pair.components, _parseval_sums(grid, S))

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
        return 0.5 * self.grad - self.F

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


class _Sampler:
    """evolve's sample kernel: the _Norms record and the variance of a
    whole-step state, with the bits that _Norms.of and _variance give.

    The stack holds r rows: the components in the slice held, or, when
    synchronized, one row that stands for both of two equal components, so
    that it counts for both in the masses, the norms and F, and as
    |u1|^p |u2|^p = |u|^2p in the cross term. measure() writes the state's
    densities and its Parseval, power and variance integrands into the
    rows of one (K, n) array of its own and sums them with one call, row by
    row; every row holds the values the separate routes sum, so every sum
    keeps its bits."""

    def __init__(self, params, grid, held, synchronized):
        self.params, self.grid = params, grid
        self.held, self.synchronized = held, synchronized
        self.r = r = 1 if synchronized else len(range(2)[held])
        # a cross integrand, and a combined density apart from the rows
        self.crossed = synchronized or r == 2
        # the summed rows: |S_j|^2, |k|^2 |S_j|^2, m_j^p, the cross term
        # and the variance integrand, then the densities m_j and their sum
        self.summed = 3 * r + self.crossed + 1
        self.shape = (self.summed + r + self.crossed, grid.total_points)
        w = grid.cell_volume / grid.total_points
        self.scale = np.array([w] * (2 * r) + [grid.cell_volume] * (self.summed - 2 * r))
        self.k2 = grid.k2.reshape(-1)
        self.r2 = grid.radius_sq().reshape(-1)

    def measure(self, U, S):
        """(norms, variance) of the whole-step state U, an (r, *shape)
        stack, whose spectrum S is one unitary kinetic multiplier away from
        U's, so that the masses and ||grad U||^2 are its Parseval sums;
        variance is nan where U has not decayed at the box edge. None when
        U is not finite: that shows in the peak of its density, unless the
        density overflows, which a finite state is still sampled through."""
        r, k, p = self.r, self.summed, self.params.p
        U = U.reshape(r, -1)
        S = S.reshape(r, -1)
        buf = np.empty(self.shape)
        mass, grad, power = buf[:r], buf[r : 2 * r], buf[2 * r : 3 * r]
        m = buf[k : k + r]
        # the scratch parts of each square: the power rows, the gradient rows
        np.square(U.real, out=m)
        m += np.square(U.imag, out=power)
        dens = np.add(m[0], m[-1], out=buf[-1]) if self.crossed else m[0]
        peak = float(dens.max())
        if not math.isfinite(peak) and not np.isfinite(U).all():
            return None
        np.square(S.real, out=mass)
        mass += np.square(S.imag, out=grad)
        np.multiply(self.k2, mass, out=grad)
        _power(m, p, out=power)
        if self.crossed:
            cross = np.multiply(m[0], m[-1], out=buf[3 * r])
            _power(cross, 0.5 * p, out=cross)
        # one rule with _variance: a ratio at the tolerance, or above it,
        # leaves the variance out
        decayed = not _amplitude_ratio(self.grid, dens, peak) >= BOUNDARY_DECAY_TOL
        if decayed:
            np.multiply(self.r2, dens, out=buf[k - 1])
        else:
            k -= 1
        values = (buf[:k].sum(axis=1) * self.scale[:k]).tolist()
        masses, grads, powers = values[:r], values[r : 2 * r], values[2 * r : 3 * r]
        if self.synchronized:
            # the one row counts for both components
            parts = [sums * 2 for sums in (masses, grads, powers)]
        else:
            parts = [_per_component(self.held, sums, 0.0) for sums in (masses, grads, powers)]
        (m1, m2), (grad1, grad2), (i1, i2) = parts
        cross = values[3 * r] if self.crossed else 0.0
        norms = _Norms(self.params, self.grid.dim, grad1, grad2, m1, m2, i1, i2, cross)
        return norms, values[k - 1] if decayed else math.nan


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

    for a claimed action level m. It passes when m > 0 and every residual
    is at most 1e-6; a non-positive m is flagged, never passed.
    """

    residual_gradient: float
    residual_coupling: float
    residual_mass: float
    m_positive: bool

    @property
    def max_residual(self) -> float:
        return max(self.residual_gradient, self.residual_coupling, self.residual_mass)

    @property
    def ok(self) -> bool:
        return self.m_positive and self.max_residual <= _POHOZAEV_TOL


def pohozaev_check(pair: FieldPair, params: SystemParams, m: float) -> PohozaevCheck:
    """The PohozaevCheck of pair at the claimed action level m."""
    if m <= 0:
        return PohozaevCheck(np.inf, np.inf, np.inf, m_positive=False)
    residuals = (relative_error(v, t) for v, t in _Norms.measure(pair, params).partitions(m))
    return PohozaevCheck(*residuals, m_positive=True)


def _amplitude_ratio(grid: Grid, dens: np.ndarray, peak: float | None = None) -> float:
    """Max combined amplitude on the outermost grid layer over the global
    max, from the combined density |u1|^2 + |u2|^2; peak, when given, is
    dens.max()."""
    if peak is None:
        peak = float(dens.max())
    if peak == 0.0:
        return 0.0
    return math.sqrt(float(dens.reshape(-1)[grid.boundary_indices].max()) / peak)


def boundary_amplitude_ratio(pair: FieldPair) -> float:
    """Max combined amplitude on the outermost grid layer over the global max."""
    m1, m2 = _density(pair.components)
    return _amplitude_ratio(pair.grid, m1 + m2)


def _variance(grid: Grid, dens: np.ndarray) -> float:
    """variance() from the combined density |u1|^2 + |u2|^2."""
    ratio = _amplitude_ratio(grid, dens)
    if ratio >= BOUNDARY_DECAY_TOL:
        raise BoundaryDecayError(
            f"boundary amplitude is {ratio:.3e} of the peak (tolerance {BOUNDARY_DECAY_TOL:.1e}); "
            "variance would be contaminated by wrap-around"
        )
    return _integral(grid, grid.radius_sq() * dens)


def variance(pair: FieldPair) -> float:
    """V(U) = int |x|^2 (|u1|^2 + |u2|^2), x measured from the box center.

    Refuses when the field has not decayed at the boundary (relative
    amplitude >= BOUNDARY_DECAY_TOL = 1e-8), since the periodic image would
    corrupt the moment.
    """
    m1, m2 = _density(pair.components)
    return _variance(pair.grid, m1 + m2)


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
        return ",".join(map(_cell, astuple(self)))
