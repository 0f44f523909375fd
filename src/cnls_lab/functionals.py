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

from dataclasses import dataclass

import numpy as np

from .core import (
    FieldPair,
    SystemParams,
    gradient_norm_sq,
    gradient_norm_sq_component,
    l2_norm_sq,
    relative_error,
    weighted_l2_norm_sq,
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


def _coupling_sums(pair: FieldPair, params: SystemParams):
    """Quadrature values of int |u1|^2p, int |u2|^2p, int |u1|^p |u2|^p."""
    p = params.p
    a1 = np.abs(pair.c1)
    a2 = np.abs(pair.c2)
    cell = pair.grid.cell_volume
    s1 = float(np.sum(a1 ** (2 * p)) * cell)
    s2 = float(np.sum(a2 ** (2 * p)) * cell)
    cross = float(np.sum(a1**p * a2**p) * cell)
    return s1, s2, cross


def coupling_F(pair: FieldPair, params: SystemParams) -> float:
    """Nonlinear potential F(U)."""
    s1, s2, cross = _coupling_sums(pair, params)
    return (s1 + s2 + 2.0 * params.beta * cross) / (2.0 * params.p)


def _rates(c1, c2, params: SystemParams):
    """The real rates A_j = |u_j|^(2p-2) + beta |u_k|^p |u_j|^(p-2) of the
    two coupled equations: the gradient of F is (A1 u1, A2 u2), and the
    nonlinear substep of the Schrodinger flow is u_j -> exp(i dt A_j) u_j.

    For p < 2 the factor |u_j|^(p-2) diverges at zeros of u_j, where A_j
    only ever multiplies a zero value; there the base is taken as inf, so
    the factor is 0.
    """
    p, beta = params.p, params.beta
    a1 = np.abs(c1)
    a2 = np.abs(c2)
    r1 = a1 ** (2 * p - 2)
    r2 = a2 ** (2 * p - 2)
    if beta != 0.0:
        b1, b2 = a1, a2
        if p < 2:
            b1 = np.where(a1 > 0, a1, np.inf)
            b2 = np.where(a2 > 0, a2, np.inf)
        r1 += beta * a2**p * b1 ** (p - 2)
        r2 += beta * a1**p * b2 ** (p - 2)
    return r1, r2


def coupling_gradient(pair: FieldPair, params: SystemParams):
    """Gradient of F: the right-hand sides of the two coupled equations,

        g1 = (|u1|^(2p-2) + beta |u1|^(p-2) |u2|^p) u1   and symmetrically g2.
    """
    r1, r2 = _rates(pair.c1, pair.c2, params)
    return r1 * pair.c1, r2 * pair.c2


def energy_E(pair: FieldPair, params: SystemParams) -> float:
    return 0.5 * gradient_norm_sq(pair) - coupling_F(pair, params)


def action_I(pair: FieldPair, params: SystemParams) -> float:
    return energy_E(pair, params) + 0.5 * weighted_l2_norm_sq(pair, params)


def virial_R(pair: FieldPair, params: SystemParams) -> float:
    n = pair.grid.dim
    return gradient_norm_sq(pair) - n * (params.p - 1.0) * coupling_F(pair, params)


def nehari_pairing(pair: FieldPair, params: SystemParams) -> float:
    """<I'(U), U> = ||grad U||^2 + ||U||_{2,omega}^2 - 2p F(U)."""
    return (
        gradient_norm_sq(pair)
        + weighted_l2_norm_sq(pair, params)
        - 2.0 * params.p * coupling_F(pair, params)
    )


def partial_pairings(pair: FieldPair, params: SystemParams) -> tuple[float, float]:
    """Per-component pairings; both vanish on a standing-wave profile.

    The cross term beta int |u1|^p |u2|^p is charged once to each component,
    matching the structure of the two coupled equations.
    """
    g = pair.grid
    s1, s2, cross = _coupling_sums(pair, params)
    pair1 = (
        gradient_norm_sq_component(g, pair.c1)
        + params.omega1 * l2_norm_sq(g, pair.c1)
        - s1
        - params.beta * cross
    )
    pair2 = (
        gradient_norm_sq_component(g, pair.c2)
        + params.omega2 * l2_norm_sq(g, pair.c2)
        - s2
        - params.beta * cross
    )
    return pair1, pair2


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
    n = pair.grid.dim
    p = params.p
    if m <= 0:
        return PohozaevCheck(np.inf, np.inf, np.inf, m_positive=False, tol=tol)
    r_grad = relative_error(gradient_norm_sq(pair), n * m)
    r_coup = relative_error(coupling_F(pair, params), m / (p - 1.0))
    r_mass = relative_error(weighted_l2_norm_sq(pair, params), (2.0 * p / (p - 1.0) - n) * m)
    return PohozaevCheck(r_grad, r_coup, r_mass, m_positive=True, tol=tol)


def boundary_amplitude_ratio(pair: FieldPair) -> float:
    """Max combined amplitude on the outermost grid layer over the global max."""
    amp = np.sqrt(np.abs(pair.c1) ** 2 + np.abs(pair.c2) ** 2)
    peak = float(amp.max())
    if peak == 0.0:
        return 0.0
    edge = float(amp[pair.grid.boundary_mask()].max())
    return edge / peak


def variance(pair: FieldPair, *, boundary_tol: float = BOUNDARY_DECAY_TOL) -> float:
    """V(U) = int |x|^2 (|u1|^2 + |u2|^2), x measured from the box center.

    Refuses when the field has not decayed at the boundary (relative
    amplitude >= boundary_tol), since the periodic image would corrupt the
    moment.
    """
    ratio = boundary_amplitude_ratio(pair)
    if ratio >= boundary_tol:
        raise BoundaryDecayError(
            f"boundary amplitude is {ratio:.3e} of the peak (tolerance {boundary_tol:.1e}); "
            "variance would be contaminated by wrap-around"
        )
    g = pair.grid
    dens = np.abs(pair.c1) ** 2 + np.abs(pair.c2) ** 2
    return float(np.sum(g.radius_sq() * dens) * g.cell_volume)


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
        g = pair.grid
        f_val = coupling_F(pair, params)
        grad = gradient_norm_sq(pair)
        wmass = weighted_l2_norm_sq(pair, params)
        energy = 0.5 * grad - f_val
        action = energy + 0.5 * wmass
        vir = grad - g.dim * (params.p - 1.0) * f_val
        p1, p2 = partial_pairings(pair, params)
        return cls(
            coupling=f_val,
            energy=energy,
            action=action,
            virial=vir,
            mass1=l2_norm_sq(g, pair.c1),
            mass2=l2_norm_sq(g, pair.c2),
            weighted_mass=wmass,
            nehari_pairing=p1 + p2,
            pairing1=p1,
            pairing2=p2,
        )

    def csv_row(self) -> str:
        vals = (
            self.coupling,
            self.energy,
            self.action,
            self.virial,
            self.mass1,
            self.mass2,
            self.weighted_mass,
            self.nehari_pairing,
            self.pairing1,
            self.pairing2,
        )
        return ",".join(f"{v:.17g}" for v in vals)
