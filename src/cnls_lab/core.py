"""Grids, system parameters and complex field pairs.

The system under study couples two complex fields phi_1, phi_2 on R^n
(n = 1, 2, 3) through the power nonlinearities

    i d/dt phi_1 + Lap phi_1 + (|phi_1|^(2p-2) + beta |phi_2|^p |phi_1|^(p-2)) phi_1 = 0
    i d/dt phi_2 + Lap phi_2 + (|phi_2|^(2p-2) + beta |phi_1|^p |phi_2|^(p-2)) phi_2 = 0

Everything is discretized on a uniform periodic box [-L, L)^n with a
power-of-two number of points per axis, so derivatives and norms are
spectral. Integrals use the rectangle rule sum(f) * dx^n, which is
spectrally accurate for smooth periodic integrands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import fftfreq, fftn

from .errors import GridMismatchError

__all__ = [
    "Grid",
    "SystemParams",
    "FieldPair",
    "default_half_width",
    "l2_norm_sq",
    "weighted_l2_norm_sq",
    "gradient_norm_sq",
    "gradient_norm_sq_component",
    "h1_norm_sq",
    "h1_distance",
    "relative_error",
]

# Relative errors: denominator floored so division never overflows, and
# a near-zero reference switches the comparison to an absolute one.
_DENOM_FLOOR = 1e-300
_ABS_SWITCH = 1e-10


def relative_error(value: float, reference: float) -> float:
    """|value - reference| / |reference|, with the absolute difference
    returned when |reference| < 1e-10."""
    diff = abs(value - reference)
    ref = abs(reference)
    if ref < _ABS_SWITCH:
        return diff
    return diff / max(ref, _DENOM_FLOOR)


def default_half_width(omega1: float, omega2: float) -> float:
    """Box half-width 20 / sqrt(min(omega1, omega2, 1)).

    Profiles decay like exp(-sqrt(omega) |x|), so this keeps the slowest
    component below ~1e-8 of its peak at the boundary for every omega.
    """
    return 20.0 / np.sqrt(min(omega1, omega2, 1.0))


class Grid:
    """Uniform periodic box [-L, L)^n.

    Attributes:
        dim: spatial dimension, 1, 2 or 3.
        points_per_axis: grid points per axis (power of two).
        half_width: L.
        dx: grid spacing 2L / points_per_axis.
        shape: full array shape, (N,) * dim.
        axes: per-axis coordinate arrays, x_j = -L + j dx.
        wavenumbers: per-axis spectral wavenumbers 2*pi*fftfreq(N, dx).
        k2: |k|^2 on the full grid (broadcast sum over axes).
        cell_volume: dx^dim, the quadrature weight.
    """

    def __init__(self, dim: int, points_per_axis: int, half_width: float):
        if dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
        n = int(points_per_axis)
        if n < 2 or n & (n - 1) != 0:
            raise ValueError(f"points_per_axis must be a power of two >= 2, got {points_per_axis}")
        if not 0 < half_width < np.inf:
            raise ValueError(f"half_width must be positive and finite, got {half_width}")
        self.dim = dim
        self.points_per_axis = n
        self.half_width = float(half_width)
        self.dx = 2.0 * self.half_width / n
        self.shape = (n,) * dim
        self.total_points = n**dim
        self.cell_volume = self.dx**dim
        x = -self.half_width + self.dx * np.arange(n)
        k = 2.0 * np.pi * fftfreq(n, d=self.dx)
        self.axes = tuple(x.copy() for _ in range(dim))
        self.wavenumbers = tuple(k.copy() for _ in range(dim))
        self.k2 = sum(kx**2 for kx in np.ix_(*self.wavenumbers))
        self._radius_sq = None
        self._boundary_mask = None

    def radius_sq(self) -> np.ndarray:
        """|x|^2 measured from the box center (the origin)."""
        if self._radius_sq is None:
            self._radius_sq = sum(x**2 for x in np.ix_(*self.axes))
        return self._radius_sq

    def boundary_mask(self) -> np.ndarray:
        """Boolean mask of the outermost grid layer (any axis at its edge)."""
        if self._boundary_mask is None:
            mask = np.zeros(self.shape, dtype=bool)
            n = self.points_per_axis
            for ax in range(self.dim):
                idx = [slice(None)] * self.dim
                idx[ax] = 0
                mask[tuple(idx)] = True
                idx[ax] = n - 1
                mask[tuple(idx)] = True
            self._boundary_mask = mask
        return self._boundary_mask

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.dim == other.dim
            and self.points_per_axis == other.points_per_axis
            and self.half_width == other.half_width
        )

    def __hash__(self):
        return hash((self.dim, self.points_per_axis, self.half_width))

    def __repr__(self):
        return f"Grid(dim={self.dim}, points_per_axis={self.points_per_axis}, half_width={self.half_width})"


@dataclass(frozen=True)
class SystemParams:
    """System parameters: exponent p > 1, coupling beta >= 0 and the
    component frequencies omega1, omega2 > 0."""

    p: float
    beta: float
    omega1: float
    omega2: float

    def __post_init__(self):
        if not all(np.isfinite((self.p, self.beta, self.omega1, self.omega2))):
            raise ValueError(
                f"p, beta, omega1, omega2 must be finite, got "
                f"{self.p}, {self.beta}, {self.omega1}, {self.omega2}"
            )
        if not self.p > 1:
            raise ValueError(f"p must be > 1, got {self.p}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not (self.omega1 > 0 and self.omega2 > 0):
            raise ValueError(f"omega1, omega2 must be positive, got {self.omega1}, {self.omega2}")

    @property
    def weights(self) -> tuple[float, float]:
        return (self.omega1, self.omega2)

    def criticality(self, dim: int) -> str:
        """'subcritical' (p < 1 + 2/n), 'critical' (=) or 'supercritical' (>)."""
        edge = 1.0 + 2.0 / dim
        if self.p < edge:
            return "subcritical"
        if self.p == edge:
            return "critical"
        return "supercritical"

    def existence_ok(self, dim: int) -> bool:
        """Energy-subcritical bound p < n/(n-2) (vacuous for n <= 2)."""
        if dim <= 2:
            return True
        return self.p < dim / (dim - 2)


class FieldPair:
    """A pair of complex fields on a grid. Treat instances as immutable
    values: operations return new pairs and never write into c1/c2."""

    __slots__ = ("grid", "c1", "c2")

    def __init__(self, grid: Grid, c1, c2, *, copy: bool = True, check: bool = True):
        self.grid = grid
        c1 = np.asarray(c1, dtype=complex)
        c2 = np.asarray(c2, dtype=complex)
        if copy:
            c1 = np.array(c1, dtype=complex, order="C", copy=True)
            c2 = np.array(c2, dtype=complex, order="C", copy=True)
        if check:
            if c1.shape != grid.shape or c2.shape != grid.shape:
                raise ValueError(
                    f"component shapes {c1.shape}, {c2.shape} do not match grid shape {grid.shape}"
                )
            if not (np.isfinite(c1).all() and np.isfinite(c2).all()):
                raise ValueError("field components must be finite")
        self.c1 = c1
        self.c2 = c2

    @classmethod
    def zeros(cls, grid: Grid) -> "FieldPair":
        z = np.zeros(grid.shape, dtype=complex)
        return cls(grid, z, z.copy(), copy=False, check=False)

    @property
    def components(self):
        return (self.c1, self.c2)

    def copy(self) -> "FieldPair":
        return FieldPair(self.grid, self.c1, self.c2, copy=True, check=False)

    def __add__(self, other: "FieldPair") -> "FieldPair":
        same_grid(self, other)
        return FieldPair(self.grid, self.c1 + other.c1, self.c2 + other.c2, copy=False, check=False)

    def __sub__(self, other: "FieldPair") -> "FieldPair":
        same_grid(self, other)
        return FieldPair(self.grid, self.c1 - other.c1, self.c2 - other.c2, copy=False, check=False)

    def __mul__(self, scalar) -> "FieldPair":
        s = complex(scalar)
        return FieldPair(self.grid, s * self.c1, s * self.c2, copy=False, check=False)

    __rmul__ = __mul__

    def __repr__(self):
        return f"FieldPair(grid={self.grid!r})"


def same_grid(u: FieldPair, v: FieldPair) -> None:
    if u.grid is not v.grid and u.grid != v.grid:
        raise GridMismatchError(f"fields live on different grids: {u.grid!r} vs {v.grid!r}")


def l2_norm_sq(grid: Grid, f: np.ndarray) -> float:
    """||f||_2^2 by rectangle-rule quadrature."""
    return float(np.sum(np.abs(f) ** 2) * grid.cell_volume)


def weighted_l2_norm_sq(pair: FieldPair, params: SystemParams) -> float:
    """omega1 ||c1||_2^2 + omega2 ||c2||_2^2."""
    g = pair.grid
    return params.omega1 * l2_norm_sq(g, pair.c1) + params.omega2 * l2_norm_sq(g, pair.c2)


def gradient_norm_sq_component(grid: Grid, f: np.ndarray) -> float:
    """||grad f||_2^2 via the spectral multiplier |k|^2."""
    fh = fftn(f)
    return float(np.sum(grid.k2 * np.abs(fh) ** 2) * grid.cell_volume / grid.total_points)


def gradient_norm_sq(pair: FieldPair) -> float:
    """||grad c1||_2^2 + ||grad c2||_2^2."""
    g = pair.grid
    return gradient_norm_sq_component(g, pair.c1) + gradient_norm_sq_component(g, pair.c2)


def h1_norm_sq(pair: FieldPair, params: SystemParams) -> float:
    """||U||^2 = ||grad U||_2^2 + omega1 ||u1||_2^2 + omega2 ||u2||_2^2."""
    return gradient_norm_sq(pair) + weighted_l2_norm_sq(pair, params)


def h1_distance(u: FieldPair, v: FieldPair, params: SystemParams) -> float:
    """Distance in the frequency-weighted H^1 norm."""
    same_grid(u, v)
    return float(np.sqrt(h1_norm_sq(u - v, params)))
