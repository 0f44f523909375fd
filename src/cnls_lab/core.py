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

import cmath
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.fft import fft, fftfreq, fftn, ifft, ifftn, irfft, irfftn, rfft, rfftfreq, rfftn

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

# larger grids are refused before anything is allocated: 256^3 points,
# 64 times the largest grid the experiments use
_MAX_POINTS = 2**24


def relative_error(value: float, reference: float) -> float:
    """|value - reference| / |reference|, with the absolute difference
    returned when |reference| < 1e-10."""
    diff = abs(value - reference)
    ref = abs(reference)
    if ref < _ABS_SWITCH:
        return diff
    return diff / max(ref, _DENOM_FLOOR)


def _cell(value) -> str:
    """One CSV cell or summary value: a float to 17 significant digits,
    which read back exactly; a flag as 0 or 1; None as empty."""
    if isinstance(value, (bool, np.bool_)):
        value = int(value)
    if isinstance(value, float):
        return "%.17g" % value
    return "" if value is None else str(value)


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line of cells per row."""
    return "".join(line + "\n" for line in [header, *(",".join(map(_cell, row)) for row in rows)])


def default_half_width(omega1: float, omega2: float) -> float:
    """Box half-width 20 / sqrt(min(omega1, omega2, 1)).

    Profiles decay like exp(-sqrt(omega) |x|), so this keeps the slowest
    component below ~1e-8 of its peak at the boundary for every omega.
    """
    return 20.0 / np.sqrt(min(omega1, omega2, 1.0))


def _check_number(value, key, need="be finite and positive", accepts=lambda x: 0.0 < x < math.inf,
                  *, integer=False):
    """value as a float, an int beyond the float range as an infinity, or
    with integer=True as an int read through operator.index: the one rule
    of every number a caller passes, from a grid's half-width to a seed.
    ValueError(f"{key} must {need}, got {value!r}") for a bool, a string, a
    complex number or anything else that is not a real number (with
    integer=True, not an integer: a float that holds a whole number
    included), or for a number that accepts refuses."""
    number = None
    if not isinstance(value, bool) and (integer or isinstance(value, numbers.Real)):
        try:
            number = operator.index(value) if integer else float(value)
        except TypeError:
            pass
        except OverflowError:
            number = math.inf if value > 0 else -math.inf
    if number is None or not accepts(number):
        raise ValueError(f"{key} must {need}, got {value!r}")
    return number


# the rules of a spatial dimension (Grid's and the level formulas') and of
# a seed (the generators of gaussian_init and perturbation_pair)
_DIM = dict(need="be 1, 2 or 3", accepts=(1, 2, 3).__contains__, integer=True)
_SEED = dict(need="be a non-negative integer", accepts=(0).__le__, integer=True)


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
        k2: |k|^2 on the full grid (broadcast sum over axes), computed on
            first use: the flows never read it.
        half_k2, half_weights: |k|^2 on the half spectrum of a real field
            (the last axis cut to its N/2 + 1 nonnegative columns) and the
            Parseval multiplicity of each column, computed on first use.
        cell_volume: dx^dim, the quadrature weight.
    """

    def __init__(self, dim: int, points_per_axis: int, half_width: float):
        dim = _check_number(dim, "dim", **_DIM)
        n = _check_number(points_per_axis, "points_per_axis", "be a power of two >= 2",
                          lambda n: n >= 2 and n & (n - 1) == 0, integer=True)
        if n**dim > _MAX_POINTS:
            raise ValueError(f"{n}^{dim} grid points exceed the ceiling of {_MAX_POINTS}")
        half_width = _check_number(half_width, "half_width")
        # the spacing, the cell volume and the largest |k|^2 and |x|^2 must
        # be positive and finite too, which bounds half_width on both sides
        dx = np.float64(2.0 * half_width / n)
        with np.errstate(all="ignore"):
            derived = (dx, dx**dim, dim * (np.pi / dx) ** 2, dim * (0.5 * n * dx) ** 2)
        if not all(0 < v < np.inf for v in derived):
            raise ValueError(f"half_width={half_width} on {n} points per axis gives a degenerate {dim}d grid")
        self.dim = dim
        self.points_per_axis = n
        self.half_width = half_width
        self.dx = 2.0 * self.half_width / n
        self.shape = (n,) * dim
        self.total_points = n**dim
        self.cell_volume = self.dx**dim
        x = -self.half_width + self.dx * np.arange(n)
        k = 2.0 * np.pi * fftfreq(n, d=self.dx)
        self.axes = tuple(x.copy() for _ in range(dim))
        self.wavenumbers = tuple(k.copy() for _ in range(dim))
        self._boundary_mask = None

    @cached_property
    def k2(self) -> np.ndarray:
        """|k|^2 on the full spectrum that _fft returns."""
        return sum(kx**2 for kx in np.ix_(*self.wavenumbers))

    @cached_property
    def half_k2(self) -> np.ndarray:
        """|k|^2 on the half spectrum that _rfft returns."""
        k_last = 2.0 * np.pi * rfftfreq(self.points_per_axis, d=self.dx)
        return sum(kx**2 for kx in np.ix_(*self.wavenumbers[:-1], k_last))

    @cached_property
    def half_weights(self) -> np.ndarray:
        """Parseval multiplicities of the half-spectrum columns, along the
        last axis: 1 at the zero and Nyquist columns, which the real field's
        full spectrum holds once, and 2 at every other column, which stands
        for itself and its conjugate mirror."""
        weights = np.full(self.points_per_axis // 2 + 1, 2.0)
        weights[[0, -1]] = 1.0
        return weights

    def radius_sq(self) -> np.ndarray:
        """|x|^2 measured from the box center (the origin), a fresh array on
        every call: each caller reads it once, and the grid keeps no
        full-size copy."""
        return sum(x**2 for x in np.ix_(*self.axes))

    def boundary_mask(self) -> np.ndarray:
        """Boolean mask of the outermost grid layer (any axis at its edge)."""
        if self._boundary_mask is None:
            interior = np.zeros((self.points_per_axis - 2,) * self.dim, dtype=bool)
            self._boundary_mask = np.pad(interior, 1, constant_values=True)
        return self._boundary_mask

    @cached_property
    def boundary_indices(self) -> np.ndarray:
        """Flat indices of the outermost grid layer, the entries of a
        field's reshape(-1) that boundary_mask() picks."""
        return np.flatnonzero(self.boundary_mask())

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


def _mass_criticality(p: float, dim: int) -> str:
    """'subcritical', 'critical' or 'supercritical' as n(p - 1) is below,
    at or above 2: the one test of p against the mass-critical 1 + 2/n.
    In 3d the float nearest 5/3 gives n(p - 1) = 2 exactly, where 1 + 2/3
    rounds one ulp below it."""
    np1 = dim * (p - 1.0)
    if np1 < 2.0:
        return "subcritical"
    if np1 == 2.0:
        return "critical"
    return "supercritical"


@dataclass(frozen=True)
class SystemParams:
    """System parameters: exponent p > 1, coupling beta >= 0 and the
    component frequencies omega1, omega2 > 0."""

    p: float
    beta: float
    omega1: float
    omega2: float

    def __post_init__(self):
        _check_number(self.p, "p", "be > 1 and finite", lambda p: 1.0 < p < math.inf)
        _check_number(self.beta, "beta", "be >= 0 and finite", lambda beta: 0.0 <= beta < math.inf)
        _check_number(self.omega1, "omega1")
        _check_number(self.omega2, "omega2")

    @property
    def weights(self) -> tuple[float, float]:
        return (self.omega1, self.omega2)

    def criticality(self, dim: int) -> str:
        """'subcritical' (p < 1 + 2/n), 'critical' (=) or 'supercritical' (>)."""
        return _mass_criticality(self.p, dim)

    def existence_ok(self, dim: int) -> bool:
        """Energy-subcritical bound p < n/(n-2) (vacuous for n <= 2)."""
        if dim <= 2:
            return True
        return self.p < dim / (dim - 2)


class FieldPair:
    """A pair U = (u1, u2) of complex fields on a grid, held as one
    C-contiguous complex array components of shape (2, *grid.shape), so that
    one transform or one ufunc call serves both fields; c1 and c2 are views
    of its two rows. The constructor copies c1 and c2 into a fresh stack and
    refuses any shape other than grid.shape and any non-finite entry; sums,
    differences and scalar multiples refuse a result that overflows. Treat
    instances as immutable values: operations return new pairs and never
    write into components, c1 or c2."""

    __slots__ = ("grid", "components")

    def __init__(self, grid: Grid, c1, c2):
        if np.shape(c1) != grid.shape or np.shape(c2) != grid.shape:
            raise ValueError(
                f"component shapes {np.shape(c1)}, {np.shape(c2)} do not match grid shape {grid.shape}"
            )
        stack = np.empty((2,) + grid.shape, dtype=complex)
        stack[0], stack[1] = c1, c2
        if not np.isfinite(stack).all():
            raise ValueError("field components must be finite")
        self.grid = grid
        self.components = stack

    @classmethod
    def _wrap(cls, grid: Grid, U: np.ndarray) -> "FieldPair":
        """The pair whose components are U, a finite C-contiguous complex
        (2, *grid.shape) array that nothing writes to afterwards; U is
        neither copied nor checked."""
        pair = cls.__new__(cls)
        pair.grid = grid
        pair.components = U
        return pair

    @classmethod
    def _finite(cls, grid: Grid, U: np.ndarray) -> "FieldPair":
        """_wrap for U computed from finite operands, which an overflow can
        still leave non-finite: that raises ValueError."""
        if not np.isfinite(U).all():
            raise ValueError("the resulting field pair is not finite: the operation overflowed")
        return cls._wrap(grid, U)

    @property
    def c1(self) -> np.ndarray:
        return self.components[0]

    @property
    def c2(self) -> np.ndarray:
        return self.components[1]

    def __add__(self, other: "FieldPair") -> "FieldPair":
        same_grid(self, other)
        return FieldPair._finite(self.grid, self.components + other.components)

    def __sub__(self, other: "FieldPair") -> "FieldPair":
        same_grid(self, other)
        return FieldPair._finite(self.grid, self.components - other.components)

    def __mul__(self, scalar) -> "FieldPair":
        scalar = complex(scalar)
        if not cmath.isfinite(scalar):
            raise ValueError(f"a field pair is scaled only by a finite scalar, got {scalar}")
        return FieldPair._finite(self.grid, scalar * self.components)

    __rmul__ = __mul__

    def __repr__(self):
        return f"FieldPair(grid={self.grid!r})"


def same_grid(u: FieldPair, v: FieldPair) -> None:
    if u.grid is not v.grid and u.grid != v.grid:
        raise GridMismatchError(f"fields live on different grids: {u.grid!r} vs {v.grid!r}")


# the components that a start or a perturbation of each mode populates
_MODE_ROWS = {"first": slice(0, 1), "second": slice(1, 2), "both": slice(0, 2), "paired": slice(0, 2)}


def _populated(U: np.ndarray, grid: Grid) -> slice:
    """The slice of the components that are nonzero in some member of U, a
    (2, *grid.shape) pair or an (E, 2, *grid.shape) batch of them; the first
    alone when none is. An exactly zero component stays exactly zero under
    the Strang map and the projected flow, so both hold only these rows."""
    first, second = U.reshape(-1, 2, grid.total_points).any(axis=(0, 2))
    if first and second:
        return slice(0, 2)
    return slice(1, 2) if second else slice(0, 1)


def _per_component(held: slice, values, absent) -> list:
    """[entry of u1, entry of u2]: values, one per component in the slice
    held, and absent for the other."""
    pair = [absent, absent]
    pair[held] = values
    return pair


def _embed(grid: Grid, rows: np.ndarray, held: slice) -> FieldPair:
    """The pair whose components in the slice held are rows, the other
    exactly zero; a single row fills every component in held, as evolve's
    synchronized row fills both."""
    U = np.zeros((2,) + grid.shape, dtype=complex)
    U[held] = rows
    return FieldPair._wrap(grid, U)


def _density(f: np.ndarray) -> np.ndarray:
    """|f|^2 elementwise, as re^2 + im^2; on a stacked (2, *shape) pair it
    gives both components' densities."""
    return f.real**2 + f.imag**2


def _integral(grid: Grid, g: np.ndarray) -> float:
    """Rectangle-rule quadrature sum(g) dx^n, over every entry of g."""
    return float(g.sum() * grid.cell_volume)


def _fft(grid: Grid, f: np.ndarray) -> np.ndarray:
    """DFT over the trailing grid.dim axes of a field or of a stacked
    (2, *shape) pair; every grid transform goes through this pair or its
    real counterpart _rfft / _irfft. In 1d,
    fft gives fftn's result bit for bit without its n-d dispatch."""
    if grid.dim == 1:
        return fft(f)
    return fftn(f, axes=range(f.ndim - grid.dim, f.ndim))


def _ifft(grid: Grid, S: np.ndarray) -> np.ndarray:
    """Inverse of _fft, over the same axes."""
    if grid.dim == 1:
        return ifft(S)
    return ifftn(S, axes=range(S.ndim - grid.dim, S.ndim))


def _rfft(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Half spectrum of a real field over the trailing grid.dim axes, the
    last of them cut to its N/2 + 1 nonnegative columns; a stack of real
    fields is transformed in one call. The real counterpart of _fft."""
    if grid.dim == 1:
        return rfft(f)
    return rfftn(f, axes=range(f.ndim - grid.dim, f.ndim))


def _irfft(grid: Grid, S: np.ndarray) -> np.ndarray:
    """The real field(s) whose half spectrum _rfft gives S."""
    if grid.dim == 1:
        return irfft(S, n=grid.points_per_axis)
    return irfftn(S, s=grid.shape, axes=range(S.ndim - grid.dim, S.ndim))


def _parseval_sums(grid: Grid, S: np.ndarray, *, half: bool = False) -> tuple[list, list]:
    """([||grad f_j||_2^2], [||f_j||_2^2]) by Parseval, one entry per row
    f_j of the stack whose spectrum S = _fft(grid, f) holds them on its
    leading axis, each summed over every other axis; with half=True,
    S = _rfft(grid, f) of real rows, whose columns count with
    grid.half_weights. Each row is summed on its own, so a zero row adds
    exactly nothing on every grid. The density is weighed in place once the
    masses are summed, so one real array of S's shape and one temporary
    are all this allocates."""
    s = np.square(S.real)
    s += np.square(S.imag)
    if half:
        s *= grid.half_weights
    w = grid.cell_volume / grid.total_points
    rows = S.shape[0]
    mass = s.reshape(rows, -1).sum(axis=1) * w
    s *= grid.half_k2 if half else grid.k2
    grad = s.reshape(rows, -1).sum(axis=1) * w
    return grad.tolist(), mass.tolist()


def l2_norm_sq(grid: Grid, f: np.ndarray) -> float:
    """||f||_2^2 by rectangle-rule quadrature."""
    return _integral(grid, _density(f))


def weighted_l2_norm_sq(pair: FieldPair, params: SystemParams) -> float:
    """omega1 ||c1||_2^2 + omega2 ||c2||_2^2."""
    g = pair.grid
    return params.omega1 * l2_norm_sq(g, pair.c1) + params.omega2 * l2_norm_sq(g, pair.c2)


def gradient_norm_sq_component(grid: Grid, f: np.ndarray) -> float:
    """||grad f||_2^2 via the spectral multiplier |k|^2."""
    return _parseval_sums(grid, _fft(grid, f[np.newaxis]))[0][0]


def gradient_norm_sq(pair: FieldPair) -> float:
    """||grad c1||_2^2 + ||grad c2||_2^2, from one stacked transform."""
    grad1, grad2 = _parseval_sums(pair.grid, _fft(pair.grid, pair.components))[0]
    return grad1 + grad2


def h1_norm_sq(pair: FieldPair, params: SystemParams) -> float:
    """||U||^2 = ||grad U||_2^2 + omega1 ||u1||_2^2 + omega2 ||u2||_2^2."""
    return gradient_norm_sq(pair) + weighted_l2_norm_sq(pair, params)


def h1_distance(u: FieldPair, v: FieldPair, params: SystemParams) -> float:
    """Distance in the frequency-weighted H^1 norm."""
    same_grid(u, v)
    return float(np.sqrt(h1_norm_sq(u - v, params)))
