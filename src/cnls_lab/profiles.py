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
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, fftfreq, fftshift, ifft, next_fast_len

from .core import _DIM, _MODE_ROWS, FieldPair, Grid, SystemParams, _check_number, _fft, _ifft, _per_component
from .errors import ConstraintError, SupportError
from .functionals import _Norms
from .minimize import ConstraintSpec, gaussian_init, minimize_on

__all__ = [
    "Family",
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

# relative residual to which base_profile_nd drives its flow
_PROFILE_TOL = 1e-10

# largest relative Nehari pairing that nehari_to_sphere accepts
_PAIRING_TOL = 1e-6


class Family(enum.Enum):
    """The three standing-wave families."""

    SCALAR_FIRST = "scalar_first"
    SCALAR_SECOND = "scalar_second"
    VECTOR_B = "vector_b"


# the mode, a key of core._MODE_ROWS, of the components each family populates
_FAMILY_MODES = {Family.SCALAR_FIRST: "first", Family.SCALAR_SECOND: "second", Family.VECTOR_B: "both"}


@dataclass(frozen=True)
class ScalingParams:
    """Amplitude/dilation pair for u^(mu,lambda)(x) = mu u(lambda x)."""

    mu: float
    lam: float

    def __post_init__(self):
        _check_number(self.mu, "mu")
        _check_number(self.lam, "lam")

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
    period = 2.0 * grid.half_width
    # the images are summed about the nearest shift modulo the period;
    # remainder is exact and returns |shift| <= L unchanged
    x = grid.axes[0] - math.remainder(shift, period)
    out = np.zeros_like(x)
    for m in range(-_IMAGES, _IMAGES + 1):
        out += _closed_form_1d(p, omega, beta, x + m * period)
    return out


def base_profile_1d(p: float, grid: Grid) -> np.ndarray:
    """The 1d profile p^(1/(2(p-1))) sech^(1/(p-1))((p-1)x), sampled
    (periodized) on the grid."""
    if grid.dim != 1:
        raise ValueError(f"base_profile_1d needs a 1d grid, got dim={grid.dim}")
    SystemParams(p=p, beta=0.0, omega1=1.0, omega2=1.0)
    return _periodized_1d(p, 1.0, 0.0, grid, 0.0)


@dataclass(frozen=True)
class BaseProfileResult:
    """Numeric radial profile with its stationarity diagnostics."""

    values: np.ndarray
    residual: float
    iterations: int


def base_profile_nd(p: float, grid: Grid, *, omega: float = 1.0) -> BaseProfileResult:
    """Radial positive decaying solution of -Lap u + omega u = u^(2p-1) for
    n >= 2, via the Nehari flow from the seed-0 Gaussian start, driven to
    relative residual < 1e-10 within minimize_on's default iteration cap."""
    if grid.dim < 2:
        raise ValueError("base_profile_nd is for dim >= 2; use base_profile_1d in 1d")
    params = SystemParams(p=p, beta=0.0, omega1=omega, omega2=omega)
    if not params.existence_ok(grid.dim):
        raise ConstraintError(f"no decaying profile: p={p} is not below {grid.dim}/{grid.dim - 2}")
    init = gaussian_init(grid, params, mode="first")
    result = minimize_on(ConstraintSpec.nehari(), params, grid, init=init, tol=_PROFILE_TOL)
    values = np.real(result.minimizer.c1)
    # flow preserves the sign of a positive start; flip if it converged to -u
    if values.sum() < 0:
        values = -values
    return BaseProfileResult(values=values, residual=result.residual, iterations=result.iterations)


def z_beta_omega(omega: float, beta: float, p: float, grid: Grid, *, shift=None) -> np.ndarray:
    """The rescaled profile z(omega, beta) solving
    -Lap z + omega z = (1+beta) |z|^(2p-2) z, sampled on the grid and
    translated by shift, as make_member takes it."""
    SystemParams(p=p, beta=beta, omega1=omega, omega2=omega)
    shift = _shift_vector(grid, shift)
    if grid.dim == 1:
        return _periodized_1d(p, omega, beta, grid, float(shift[0]))
    base = base_profile_nd(p, grid, omega=omega).values
    values = (1.0 + beta) ** (-0.5 / (p - 1.0)) * base
    if shift.any():
        values = spectral_shift(grid, values, shift)
    return values


def _shift_vector(grid: Grid, shift) -> np.ndarray:
    """shift as grid.dim floats: a scalar in 1d, else one entry per axis,
    and None for no shift. Anything but grid.dim finite real entries raises
    ValueError."""
    if shift is None:
        return np.zeros(grid.dim)
    entries = [shift] if np.ndim(shift) == 0 else list(shift)
    if len(entries) != grid.dim:
        raise ValueError(f"shift needs {grid.dim} finite entries, got {shift!r}")
    return np.array([_check_number(y, "shift", "hold finite real numbers", math.isfinite) for y in entries])


def make_member(
    family: Family,
    params: SystemParams,
    grid: Grid,
    *,
    theta1: float = 0.0,
    theta2: float = 0.0,
    shift=None,
) -> FieldPair:
    """The family member of the system params, with phase theta_j on its
    populated component j and translated by shift (a scalar in 1d, else
    one entry per axis; None for none).

    params fix the member: SCALAR_FIRST is (e^(i theta1) z(omega1, 0), 0),
    SCALAR_SECOND is (0, e^(i theta2) z(omega2, 0)), whose profiles do not
    depend on beta (the cross term vanishes), and VECTOR_B is the
    synchronized pair e^(i theta_j) z(omega1, beta). VECTOR_B members
    require omega1 == omega2: the synchronized pair is only a standing wave
    at equal frequencies, and no characterization of the unequal-frequency
    family is available to sample from.
    """
    for key, theta in (("theta1", theta1), ("theta2", theta2)):
        _check_number(theta, key, "be a finite real number", math.isfinite)
    if family is Family.VECTOR_B and params.omega1 != params.omega2:
        raise ConstraintError(
            "VectorB members require omega1 == omega2; the unequal-frequency "
            "vector family is an open case and is refused"
        )
    omega = params.omega2 if family is Family.SCALAR_SECOND else params.omega1
    beta = params.beta if family is Family.VECTOR_B else 0.0
    prof = z_beta_omega(omega, beta, params.p, grid, shift=shift)
    held = _MODE_ROWS[_FAMILY_MODES[family]]
    rows = [np.exp(1j * theta) * prof for theta in (theta1, theta2)[held]]
    return FieldPair(grid, *_per_component(held, rows, np.zeros(grid.shape)))


def spectral_shift(grid: Grid, f: np.ndarray, shift) -> np.ndarray:
    """Translate f by the real vector shift via Fourier phases (exact for
    the trigonometric interpolant)."""
    shift = _shift_vector(grid, shift)
    fh = _fft(grid, np.asarray(f, dtype=complex))
    for k, y in zip(np.ix_(*grid.wavenumbers), shift):
        fh = fh * np.exp(-1j * k * y)
    return _ifft(grid, fh)


def _chebyshev_radius(axes) -> np.ndarray:
    """max_j |x_j| on the grid of the per-axis coordinates axes."""
    r = 0.0
    for x in np.ix_(*axes):
        r = np.maximum(r, np.abs(x))
    return r


def scale_field(grid: Grid, f: np.ndarray, scaling: ScalingParams) -> np.ndarray:
    """Evaluate u^(mu,lambda)(x) = mu u(lambda x) on the grid, for a field
    f or a stack of fields over the trailing grid axes, such as a pair's
    (2, *shape) components.

    Resampling evaluates the trigonometric interpolant of u at the
    stretched points lambda x, which are equispaced, so along each axis it
    is a chirp z-transform of the spectrum. Bluestein's identity turns it
    into a chirp convolution: done by FFTs in 1d (O(N log N)), and as one
    N x N matrix per axis on 2d and 3d grids, which have many short lines.
    Requires the rescaled support to stay inside the box: u must have
    decayed below SUPPORT_TOL = 1e-8 of its peak outside half-width
    min(L, lambda L). Stretched points outside the box (|lambda x| >= L,
    only for lambda > 1) are set to zero, which that gate justifies. A
    stack is gated as a whole, against its largest amplitude, so that a
    near-zero field of a pair is not judged by its own noise floor. The
    SupportError names the limit that applies: the grid's resolution when
    the spectral tail (the largest |u_hat| at a mode index of at least
    0.45 N on some axis, relative to the largest |u_hat|) reaches
    SUPPORT_TOL and exceeds the edge amplitude (the largest |u| on the
    outermost grid layer, relative to the peak), whose seam in the periodic
    extension leaves a tail of its own; the box otherwise. A field that is
    not finite raises ValueError.
    """
    mu, lam = scaling.mu, scaling.lam
    g = np.asarray(f, dtype=complex)
    if not np.isfinite(g).all():
        raise ValueError("the field to rescale must be finite")
    if lam == 1.0:
        return mu * g
    peak = float(np.abs(g).max())
    if peak == 0.0:
        return mu * g
    r_req = min(grid.half_width, lam * grid.half_width)
    outside = _chebyshev_radius(grid.axes) >= 0.98 * r_req
    tail = float(np.abs(g[..., outside]).max()) / peak if outside.any() else 0.0
    h = _fft(grid, g)
    if tail >= SUPPORT_TOL:
        spectrum = np.abs(h)
        # the modes whose index is at least 0.45 N on some axis
        tail_modes = _chebyshev_radius((fftfreq(grid.points_per_axis),) * grid.dim) >= 0.45
        resolution = float(spectrum[..., tail_modes].max()) / float(spectrum.max())
        edges = g.reshape(*g.shape[: g.ndim - grid.dim], -1)[..., grid.boundary_indices]
        edge = float(np.abs(edges).max()) / peak
        if resolution >= SUPPORT_TOL and resolution > edge:
            limit = f"the grid is under-resolved: dx={grid.dx:.3g} leaves a spectral tail of {resolution:.3e}"
        else:
            limit = f"the box is too small: the relative amplitude outside half-width {r_req:.3g} is {tail:.3e}"
        raise SupportError(
            f"rescaling by lambda={float(lam)!r} needs decay below {SUPPORT_TOL:.1e} "
            f"outside half-width {r_req:.3g}, but {limit}"
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
    if grid.dim == 1:
        # the chirp convolution by FFTs of length >= 2N - 1, O(N log N)
        nfft = next_fast_len(2 * n - 1)
        conv = ifft(fft(pre * fftshift(h, axes=-1), nfft) * fft(kern, nfft))
        return mu * post * conv[..., n - 1 : 2 * n - 1]
    # with N^(d-1) >= N lines per axis, one N x N matrix of the same sum
    # (columns rolled to fft order) is cheaper than padded FFTs of each line
    mat = np.roll(post[:, None] * kern[j[:, None] - j + n - 1] * pre, n // 2, axis=1)
    for ax in range(h.ndim - grid.dim, h.ndim):
        h = np.moveaxis(np.tensordot(mat, h, axes=(1, ax)), 0, ax)
    return mu * h


def scale_pair(pair: FieldPair, scaling: ScalingParams) -> FieldPair:
    """Apply scale_field to the pair's components in one call, which gates
    the decay against their combined peak."""
    scaled = scale_field(pair.grid, pair.components, scaling)
    # the n-d resampling returns a permuted view's layout
    return FieldPair._finite(pair.grid, np.ascontiguousarray(scaled))


def critical_value_map_T(m: float, gamma: float, p: float, dim: int) -> float:
    """Constrained level on the mass sphere of weight gamma induced by an
    action level m:

        T(m) = -(1/(p-1) - n/2) * (gamma/(2p' - n))^((2p'-n)/(2/(p-1)-n))
                                * (1/m)^(2/(2/(p-1)-n)),   p' = p/(p-1).

    Only meaningful at mass-subcritical exponents (p < 1 + 2/n), where the
    sphere-constrained minimization is well posed; refused otherwise. A dim
    other than 1, 2 or 3 raises ValueError, as Grid does.
    """
    try:
        m, gamma = (_check_number(value, "m and gamma") for value in (m, gamma))
    except ValueError:
        raise ValueError(f"m and gamma must be finite and positive, got m={m}, gamma={gamma}") from None
    _check_number(dim, "dim", **_DIM)
    if SystemParams(p=p, beta=0.0, omega1=1.0, omega2=1.0).criticality(dim) != "subcritical":
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


def nehari_to_sphere(pair: FieldPair, params: SystemParams, gamma: float) -> tuple[FieldPair, float]:
    """Transport a Nehari critical point onto the mass sphere of weight
    gamma: with nu fixed by nu^(1/(p-1) - n/2) = gamma / ||U||_{2,omega}^2,
    the rescaling mu = nu^(1/(2(p-1))), lambda = nu^(1/2) lands on the
    sphere; nu is the Lagrange multiplier of the image. Returns (image, nu).
    """
    gamma = _check_number(gamma, "the sphere weight gamma")
    dim = pair.grid.dim
    if params.criticality(dim) != "subcritical":
        raise ConstraintError(
            f"sphere transport needs p < 1 + 2/n (got p={params.p}, n={dim})"
        )
    norms = _Norms.measure(pair, params)
    rel_pairing = abs(norms.pairing) / norms.h1
    if not rel_pairing < _PAIRING_TOL:
        raise ConstraintError(
            f"field is not a Nehari point: relative pairing {rel_pairing:.3e} "
            f"exceeds {_PAIRING_TOL:.1e}"
        )
    a = 1.0 / (params.p - 1.0) - dim / 2.0
    # numpy floats give inf or 0 out of range, where a float ** raises
    with np.errstate(over="ignore", under="ignore"):
        nu = (np.float64(gamma) / norms.weighted_mass) ** (1.0 / a)
        mu, lam = nu ** (0.5 / (params.p - 1.0)), np.sqrt(nu)
    if not all(0.0 < x < np.inf for x in (nu, mu, lam)):
        raise ConstraintError(
            f"gamma={gamma:g} puts the sphere transport's scaling outside the "
            f"floating-point range (nu={nu:g}, mu={mu:g}, lambda={lam:g})"
        )
    return scale_pair(pair, ScalingParams(mu=float(mu), lam=lam)), float(nu)


def lambda_star(pair: FieldPair, params: SystemParams) -> float:
    """The dilation lambda* = (||grad U||^2 / (n(p-1) F(U)))^(1/(n(p-1)-2))
    at which the mass-preserving dilation g(lambda) = I(U^(lambda^(n/2), lambda))
    peaks; defined for supercritical exponents n(p-1) > 2 and F(U) > 0."""
    dim = pair.grid.dim
    np1 = dim * (params.p - 1.0)
    if params.criticality(dim) != "supercritical":
        raise ConstraintError(f"lambda_star needs n(p-1) > 2, got {np1:g}")
    norms = _Norms.measure(pair, params)
    if not norms.F > 0:
        raise ConstraintError("lambda_star needs F(U) > 0")
    return (norms.grad / (np1 * norms.F)) ** (1.0 / (np1 - 2.0))


def delta_of_omega(omega: float, beta: float, p: float, dim: int, base_mass: float) -> float:
    """Squared-mass level of z(omega, beta):

        delta(omega) = omega^(1/(p-1) - n/2) / (beta+1)^(1/(p-1)) * base_mass,

    where base_mass is ||z(1, 0)||_2^2 for the same p and n. A dim other
    than 1, 2 or 3 raises ValueError, as Grid does."""
    SystemParams(p=p, beta=beta, omega1=omega, omega2=omega)
    _check_number(base_mass, "base_mass")
    _check_number(dim, "dim", **_DIM)
    return omega ** (1.0 / (p - 1.0) - dim / 2.0) / (beta + 1.0) ** (1.0 / (p - 1.0)) * base_mass
