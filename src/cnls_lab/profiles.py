"""Standing-wave profiles and the scaling maps between solution levels.

The scalar building block is the positive radial solution of

    -Lap u + u = u^(2p-1)  on R^n,

which in 1d has the closed form  u(x) = p^(1/(2(p-1))) sech^(1/(p-1))((p-1)x)
and for n >= 2 is computed by a constrained imaginary-time flow (with a
radial shooting oracle in the test suite). Frequency and coupling enter by
pure rescaling,

    z(omega, beta)(x) = (omega/(1+beta))^(1/(2(p-1))) u(sqrt(omega) x),

which solves -Lap z + omega z = (1+beta) |z|^(2p-2) z. Family members are
the scalar pairs (e^(i theta) z, 0), (0, e^(i theta) z) and, for equal
frequencies, the synchronized vector pair (e^(i theta1) z, e^(i theta2) z).

Closed-form profiles are sampled as periodized image sums so that the
sampled array is smooth across the box seam; without this the spectral
residual at the boundary sits orders of magnitude above the advertised
tolerances.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, fftn, fftshift, ifft, ifftn, next_fast_len

from .core import FieldPair, Grid, SystemParams, h1_norm_sq
from .errors import ConstraintError, SupportError
from .functionals import nehari_pairing, coupling_F
from . import core

__all__ = [
    "Family",
    "SolitonSpec",
    "ScalingParams",
    "base_profile_1d",
    "base_profile_nd",
    "BaseProfileResult",
    "z_beta_omega",
    "make_member",
    "spectral_shift",
    "scale_field",
    "scale_pair",
    "critical_value_map_T",
    "nehari_to_sphere",
    "lambda_star",
    "delta_of_omega",
]

# Periodized sampling: translates included on each side of the box.
_IMAGES = 2

SUPPORT_TOL = 1e-8


class Family(enum.Enum):
    """The three standing-wave families."""

    SCALAR_FIRST = "scalar_first"
    SCALAR_SECOND = "scalar_second"
    VECTOR_B = "vector_b"


@dataclass(frozen=True)
class SolitonSpec:
    """A family member: frequency, coupling, per-component phases and a
    translation (None for none, in any dimension). For the scalar families
    the profile itself does not depend on beta (the cross term vanishes);
    beta is recorded for bookkeeping."""

    omega: float
    beta: float
    theta1: float
    theta2: float
    shift: tuple[float, ...] | None
    family: Family

    @classmethod
    def for_family(
        cls,
        family: Family,
        params: SystemParams,
        *,
        theta1: float = 0.0,
        theta2: float = 0.0,
        shift=None,
    ) -> "SolitonSpec":
        if family is Family.SCALAR_FIRST:
            omega = params.omega1
        elif family is Family.SCALAR_SECOND:
            omega = params.omega2
        else:
            omega = params.omega1
        if shift is not None:
            shift = tuple(float(s) for s in np.atleast_1d(np.asarray(shift, dtype=float)))
        return cls(
            omega=omega,
            beta=params.beta,
            theta1=float(theta1),
            theta2=float(theta2),
            shift=shift,
            family=family,
        )


@dataclass(frozen=True)
class ScalingParams:
    """Amplitude/dilation pair for u^(mu,lambda)(x) = mu u(lambda x)."""

    mu: float
    lam: float

    def __post_init__(self):
        if not (self.mu > 0 and self.lam > 0):
            raise ValueError(f"mu and lam must be positive, got mu={self.mu}, lam={self.lam}")

    def inverse(self) -> "ScalingParams":
        return ScalingParams(mu=1.0 / self.mu, lam=1.0 / self.lam)


def _sech_pow(t: np.ndarray, q: float) -> np.ndarray:
    """sech(t)^q, overflow-safe for large |t|."""
    a = np.abs(t)
    return 2.0**q * np.exp(-q * a) / (1.0 + np.exp(-2.0 * a)) ** q


def _closed_form_1d(p: float, omega: float, beta: float, x: np.ndarray) -> np.ndarray:
    amp = (p ** (0.5 / (p - 1.0))) * (omega / (1.0 + beta)) ** (0.5 / (p - 1.0))
    return amp * _sech_pow((p - 1.0) * np.sqrt(omega) * x, 1.0 / (p - 1.0))


def _periodized_1d(p: float, omega: float, beta: float, grid: Grid, shift: float) -> np.ndarray:
    x = grid.axes[0] - shift
    period = 2.0 * grid.half_width
    out = np.zeros_like(x)
    for m in range(-_IMAGES, _IMAGES + 1):
        out += _closed_form_1d(p, omega, beta, x + m * period)
    return out


def base_profile_1d(p: float, grid: Grid) -> np.ndarray:
    """The 1d profile p^(1/(2(p-1))) sech^(1/(p-1))((p-1)x), sampled
    (periodized) on the grid."""
    if grid.dim != 1:
        raise ValueError(f"base_profile_1d needs a 1d grid, got dim={grid.dim}")
    if not p > 1:
        raise ValueError(f"p must be > 1, got {p}")
    return _periodized_1d(p, 1.0, 0.0, grid, 0.0)


@dataclass(frozen=True)
class BaseProfileResult:
    """Numeric radial profile with its stationarity diagnostics."""

    values: np.ndarray
    residual: float
    iterations: int


def base_profile_nd(
    p: float,
    grid: Grid,
    *,
    omega: float = 1.0,
    tol: float = 1e-10,
    max_iter: int = 200_000,
    seed: int = 0,
) -> BaseProfileResult:
    """Radial positive decaying solution of -Lap u + omega u = u^(2p-1) for
    n >= 2, via the constrained imaginary-time flow driven to relative
    residual < tol."""
    if grid.dim < 2:
        raise ValueError("base_profile_nd is for dim >= 2; use base_profile_1d in 1d")
    params = SystemParams(p=p, beta=0.0, omega1=omega, omega2=omega)
    if not params.existence_ok(grid.dim):
        raise ConstraintError(f"no decaying profile: p={p} is not below {grid.dim}/{grid.dim - 2}")
    from .minimize import ConstraintSpec, gaussian_init, minimize_on

    init = gaussian_init(grid, params, mode="first", seed=seed)
    result = minimize_on(
        ConstraintSpec.nehari(), params, grid, init=init, tol=tol, max_iter=max_iter
    )
    values = np.real(result.minimizer.c1)
    # flow preserves the sign of a positive start; flip if it converged to -u
    if values.sum() < 0:
        values = -values
    return BaseProfileResult(values=values, residual=result.residual, iterations=result.iterations)


def z_beta_omega(omega: float, beta: float, p: float, grid: Grid, *, shift=None) -> np.ndarray:
    """The rescaled profile z(omega, beta) solving
    -Lap z + omega z = (1+beta) |z|^(2p-2) z, sampled on the grid."""
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if grid.dim == 1:
        y = 0.0 if shift is None else float(np.atleast_1d(shift)[0])
        return _periodized_1d(p, omega, beta, grid, y)
    base = base_profile_nd(p, grid, omega=omega).values
    values = (1.0 + beta) ** (-0.5 / (p - 1.0)) * base
    if shift is not None and np.any(np.asarray(shift) != 0):
        values = spectral_shift(grid, values, shift)
    return values


def make_member(spec: SolitonSpec, params: SystemParams, grid: Grid) -> FieldPair:
    """Build the field pair for a family member.

    VectorB members require omega1 == omega2: the synchronized pair is only
    a standing wave at equal frequencies, and no characterization of the
    unequal-frequency family is available to sample from.
    """
    if spec.beta != params.beta:
        raise ValueError(f"spec.beta={spec.beta} does not match params.beta={params.beta}")
    shift = np.zeros(grid.dim) if spec.shift is None else np.asarray(spec.shift, dtype=float)
    if shift.size != grid.dim:
        raise ValueError(f"shift has {shift.size} entries for a dim-{grid.dim} grid")
    zero = np.zeros(grid.shape, dtype=complex)
    if spec.family is Family.SCALAR_FIRST:
        if spec.omega != params.omega1:
            raise ValueError(f"spec.omega={spec.omega} does not match omega1={params.omega1}")
        prof = z_beta_omega(params.omega1, 0.0, params.p, grid, shift=shift)
        return FieldPair(grid, np.exp(1j * spec.theta1) * prof, zero, copy=False)
    if spec.family is Family.SCALAR_SECOND:
        if spec.omega != params.omega2:
            raise ValueError(f"spec.omega={spec.omega} does not match omega2={params.omega2}")
        prof = z_beta_omega(params.omega2, 0.0, params.p, grid, shift=shift)
        return FieldPair(grid, zero, np.exp(1j * spec.theta2) * prof, copy=False)
    # VectorB
    if params.omega1 != params.omega2:
        raise ConstraintError(
            "VectorB members require omega1 == omega2; the unequal-frequency "
            "vector family is an open case and is refused"
        )
    if spec.omega != params.omega1:
        raise ValueError(f"spec.omega={spec.omega} does not match omega1={params.omega1}")
    prof = z_beta_omega(params.omega1, params.beta, params.p, grid, shift=shift)
    return FieldPair(
        grid, np.exp(1j * spec.theta1) * prof, np.exp(1j * spec.theta2) * prof, copy=False
    )


def spectral_shift(grid: Grid, f: np.ndarray, shift) -> np.ndarray:
    """Translate f by the real vector shift via Fourier phases (exact for
    the trigonometric interpolant)."""
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    fh = fftn(np.asarray(f, dtype=complex))
    for k, y in zip(np.ix_(*grid.wavenumbers), shift, strict=True):
        fh = fh * np.exp(-1j * k * y)
    return ifftn(fh)


def _chebyshev_radius(grid: Grid) -> np.ndarray:
    r = np.zeros(grid.shape)
    for x in np.ix_(*grid.axes):
        r = np.maximum(r, np.abs(x))
    return r


def scale_field(
    grid: Grid,
    f: np.ndarray,
    scaling: ScalingParams,
    *,
    support_tol: float = SUPPORT_TOL,
    reference_peak: float | None = None,
) -> np.ndarray:
    """Evaluate u^(mu,lambda)(x) = mu u(lambda x) on the grid.

    Resampling evaluates the trigonometric interpolant of u at the
    stretched points lambda x, which are equispaced, so along each axis it
    is a chirp z-transform of the spectrum. Bluestein's identity turns it
    into a chirp convolution: done by FFTs in 1d (O(N log N)), and as one
    N x N matrix per axis on 2d and 3d grids, which have many short lines.
    Requires the rescaled support to stay inside the box: u must have
    decayed below support_tol of its peak outside half-width
    min(L, lambda L). Stretched points outside the box (|lambda x| >= L,
    only for lambda > 1) are set to zero, which that gate justifies.
    reference_peak overrides the amplitude the decay is measured against,
    so that the near-zero component of a pair is not judged by its own
    noise floor.
    """
    mu, lam = scaling.mu, scaling.lam
    g = np.asarray(f, dtype=complex)
    if lam == 1.0:
        return mu * g
    peak = float(np.abs(g).max()) if reference_peak is None else float(reference_peak)
    if peak == 0.0:
        return mu * g
    r_req = min(grid.half_width, lam * grid.half_width)
    outside = _chebyshev_radius(grid) >= 0.98 * r_req
    tail = float(np.abs(g[outside]).max()) / peak if outside.any() else 0.0
    if tail >= support_tol:
        raise SupportError(
            f"rescaling by lambda={lam:g} needs decay below {support_tol:.1e} outside "
            f"half-width {r_req:.3g}, but the relative amplitude there is {tail:.3e}"
        )
    n = grid.points_per_axis
    # samples are indexed from the box corner, so along each axis the
    # interpolant is Sum_m H_m exp(i m (theta0 + j dtheta)) / N over the
    # modes m = -N/2..N/2-1, a chirp z-transform of the spectrum H
    theta0, dtheta = np.pi * (1.0 - lam), 2.0 * np.pi * lam / n
    # Bluestein: m j = (m^2 + j^2 - (j - m)^2) / 2 makes the sum
    # post_j Sum_c kern_(j-c) pre_c H_(c-N/2) over c = 0..N-1; post also
    # undoes the offset of c and zeroes the points with |lambda x| >= L
    j = np.arange(n)
    chirp = np.exp(0.5j * dtheta * j**2)
    pre = chirp * np.exp(1j * theta0 * j)
    inside = np.abs(lam * grid.axes[0]) < grid.half_width
    post = chirp * np.exp(-0.5j * n * (theta0 + dtheta * j)) * inside / n
    kern = np.exp(-0.5j * dtheta * np.arange(1 - n, n) ** 2)
    h = fftn(g)
    if grid.dim == 1:
        # the chirp convolution by FFTs of length >= 2N - 1, O(N log N)
        nfft = next_fast_len(2 * n - 1)
        conv = ifft(fft(pre * fftshift(h), nfft) * fft(kern, nfft))
        return mu * post * conv[n - 1 : 2 * n - 1]
    # with N^(d-1) >= N lines per axis, one N x N matrix of the same sum
    # (columns rolled to fft order) is cheaper than padded FFTs of each line
    mat = np.roll(post[:, None] * kern[j[:, None] - j + n - 1] * pre, n // 2, axis=1)
    for ax in range(grid.dim):
        h = np.moveaxis(np.tensordot(mat, h, axes=(1, ax)), 0, ax)
    return mu * h


def scale_pair(
    pair: FieldPair, scaling: ScalingParams, *, support_tol: float = SUPPORT_TOL
) -> FieldPair:
    """Apply scale_field to both components, measuring decay against the
    pair's combined peak."""
    g = pair.grid
    peak = max(float(np.abs(pair.c1).max()), float(np.abs(pair.c2).max()))
    return FieldPair(
        g,
        scale_field(g, pair.c1, scaling, support_tol=support_tol, reference_peak=peak),
        scale_field(g, pair.c2, scaling, support_tol=support_tol, reference_peak=peak),
        copy=False,
        check=False,
    )


def critical_value_map_T(m: float, gamma: float, p: float, dim: int) -> float:
    """Constrained level on the mass sphere of weight gamma induced by an
    action level m:

        T(m) = -(1/(p-1) - n/2) * (gamma/(2p' - n))^((2p'-n)/(2/(p-1)-n))
                                * (1/m)^(2/(2/(p-1)-n)),   p' = p/(p-1).

    Only meaningful at mass-subcritical exponents (p < 1 + 2/n), where the
    sphere-constrained minimization is well posed; refused otherwise.
    """
    if not m > 0:
        raise ValueError(f"m must be positive, got {m}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not p < 1.0 + 2.0 / dim:
        raise ConstraintError(
            f"the sphere level map needs p < 1 + 2/n (got p={p}, n={dim})"
        )
    pp = p / (p - 1.0)
    denom = 2.0 / (p - 1.0) - dim
    return (
        -(1.0 / (p - 1.0) - dim / 2.0)
        * (gamma / (2.0 * pp - dim)) ** ((2.0 * pp - dim) / denom)
        * (1.0 / m) ** (2.0 / denom)
    )


def nehari_to_sphere(
    pair: FieldPair,
    params: SystemParams,
    gamma: float,
    *,
    pairing_tol: float = 1e-6,
) -> tuple[FieldPair, float]:
    """Transport a Nehari critical point onto the mass sphere of weight
    gamma: with nu fixed by nu^(1/(p-1) - n/2) = gamma / ||U||_{2,omega}^2,
    the rescaling mu = nu^(1/(2(p-1))), lambda = nu^(1/2) lands on the
    sphere; nu is the Lagrange multiplier of the image. Returns (image, nu).
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    dim = pair.grid.dim
    if not params.p < 1.0 + 2.0 / dim:
        raise ConstraintError(
            f"sphere transport needs p < 1 + 2/n (got p={params.p}, n={dim})"
        )
    rel_pairing = abs(nehari_pairing(pair, params)) / h1_norm_sq(pair, params)
    if not rel_pairing < pairing_tol:
        raise ConstraintError(
            f"field is not a Nehari point: relative pairing {rel_pairing:.3e} "
            f"exceeds {pairing_tol:.1e}"
        )
    a = 1.0 / (params.p - 1.0) - dim / 2.0
    nu = (gamma / core.weighted_l2_norm_sq(pair, params)) ** (1.0 / a)
    scaling = ScalingParams(mu=nu ** (0.5 / (params.p - 1.0)), lam=np.sqrt(nu))
    return scale_pair(pair, scaling), nu


def lambda_star(pair: FieldPair, params: SystemParams) -> float:
    """The dilation lambda* = (||grad U||^2 / (n(p-1) F(U)))^(1/(n(p-1)-2))
    at which the mass-preserving dilation g(lambda) = I(U^(lambda^(n/2), lambda))
    peaks; defined for supercritical exponents n(p-1) > 2 and F(U) > 0."""
    dim = pair.grid.dim
    np1 = dim * (params.p - 1.0)
    if not np1 > 2.0:
        raise ConstraintError(f"lambda_star needs n(p-1) > 2, got {np1:g}")
    f_val = coupling_F(pair, params)
    if not f_val > 0:
        raise ConstraintError("lambda_star needs F(U) > 0")
    return (core.gradient_norm_sq(pair) / (np1 * f_val)) ** (1.0 / (np1 - 2.0))


def delta_of_omega(omega: float, beta: float, p: float, dim: int, base_mass: float) -> float:
    """Squared-mass level of z(omega, beta):

        delta(omega) = omega^(1/(p-1) - n/2) / (beta+1)^(1/(p-1)) * base_mass,

    where base_mass is ||z(1, 0)||_2^2 for the same p and n."""
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    return omega ** (1.0 / (p - 1.0) - dim / 2.0) / (beta + 1.0) ** (1.0 / (p - 1.0)) * base_mass
