"""Binary snapshot format for a field pair plus its grid and parameters.

Layout (all little-endian):

    bytes 0..3    magic "CNLS"
    u32           format version (currently 1)
    u32           dim
    u32           points_per_axis
    f64           half_width
    f64 x 4       p, beta, omega1, omega2
    payload       the pair's (2, *shape) components in C order: c1's
                  points_per_axis^dim complex values, then c2's, each value
                  interleaved (re, im) f64

Round-trips are bit-exact: the payload is the raw IEEE-754 image of the
components stack and the header floats.
"""

from __future__ import annotations

import struct

import numpy as np

from .core import FieldPair, Grid, SystemParams

__all__ = ["MAGIC", "VERSION", "save_snapshot", "load_snapshot"]

MAGIC = b"CNLS"
VERSION = 1

_HEADER = struct.Struct("<4sIIIddddd")


def save_snapshot(path, pair: FieldPair, params: SystemParams) -> None:
    """Write pair + grid + params to path in the snapshot format."""
    g = pair.grid
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        g.dim,
        g.points_per_axis,
        g.half_width,
        params.p,
        params.beta,
        params.omega1,
        params.omega2,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(pair.components, dtype="<c16").tobytes())


def load_snapshot(path) -> tuple[FieldPair, SystemParams]:
    """Read a snapshot written by save_snapshot.

    Returns the field pair (on a freshly constructed grid) and the params.
    Raises ValueError on a foreign or truncated file.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"snapshot file too short: {path}")
    magic, version, dim, n, half_width, p, beta, omega1, omega2 = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise ValueError(f"not a snapshot file (bad magic {magic!r}): {path}")
    if version != VERSION:
        raise ValueError(f"unsupported snapshot version {version}: {path}")
    # check the header against the file length before a Grid allocates
    # anything, so a forged header cannot request an arbitrary allocation
    if dim not in (1, 2, 3) or n < 2 or n & (n - 1):
        raise ValueError(f"snapshot header has dim={dim}, points_per_axis={n}: {path}")
    count = n**dim
    expected = _HEADER.size + 2 * count * 16
    if len(raw) != expected:
        raise ValueError(f"snapshot payload has {len(raw)} bytes, expected {expected}: {path}")
    grid = Grid(dim, n, half_width)
    payload = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
    params = SystemParams(p=p, beta=beta, omega1=omega1, omega2=omega2)
    # the constructor copies the rows out of the read-only buffer
    return FieldPair(grid, *payload.reshape((2,) + grid.shape)), params
