import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnls_lab import FieldPair, Grid, SystemParams, load_snapshot, save_snapshot
from cnls_lab.snapshots import _HEADER, MAGIC, VERSION


def _random_pair(grid, seed):
    rng = np.random.default_rng(seed)
    c1 = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    c2 = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return FieldPair(grid, c1, c2)


def test_round_trip_bit_exact(tmp_path):
    grid = Grid(1, 256, 12.5)
    params = SystemParams(p=2.5, beta=0.75, omega1=1.0, omega2=2.0)
    pair = _random_pair(grid, 5)
    path = tmp_path / "state.snapshot"
    save_snapshot(path, pair, params)
    loaded, loaded_params = load_snapshot(path)
    assert loaded_params == params
    assert loaded.grid == grid
    assert np.array_equal(loaded.c1, pair.c1)
    assert np.array_equal(loaded.c2, pair.c2)


def test_round_trip_2d(tmp_path):
    grid = Grid(2, 32, 6.0)
    params = SystemParams(p=2.0, beta=0.0, omega1=1.0, omega2=1.0)
    pair = _random_pair(grid, 9)
    path = tmp_path / "state2d.snapshot"
    save_snapshot(path, pair, params)
    loaded, _ = load_snapshot(path)
    assert loaded.grid == grid
    assert np.array_equal(loaded.c2, pair.c2)


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "garbage.snapshot"
    path.write_bytes(b"not a snapshot at all")
    with pytest.raises(ValueError):
        load_snapshot(path)


def test_rejects_truncation(tmp_path):
    grid = Grid(1, 128, 10.0)
    params = SystemParams(p=2.0, beta=0.0, omega1=1.0, omega2=1.0)
    path = tmp_path / "cut.snapshot"
    save_snapshot(path, _random_pair(grid, 1), params)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValueError):
        load_snapshot(path)


def test_rejects_forged_header_before_allocating(tmp_path):
    # a header alone that claims a 2^90-point grid is refused from its
    # byte count, before any array of that size is requested
    path = tmp_path / "forged.snapshot"
    path.write_bytes(_HEADER.pack(MAGIC, VERSION, 3, 2**30, 10.0, 2.0, 0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="expected"):
        load_snapshot(path)
    path.write_bytes(_HEADER.pack(MAGIC, VERSION, 2**31, 2**30, 10.0, 2.0, 0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="dim="):
        load_snapshot(path)


def test_identical_content_identical_bytes(tmp_path):
    grid = Grid(1, 128, 10.0)
    params = SystemParams(p=2.0, beta=0.5, omega1=1.0, omega2=1.0)
    pair = _random_pair(grid, 2)
    p1 = tmp_path / "a.snapshot"
    p2 = tmp_path / "b.snapshot"
    save_snapshot(p1, pair, params)
    save_snapshot(p2, pair, params)
    assert p1.read_bytes() == p2.read_bytes()


_ODD_FLOATS = st.sampled_from([np.nan, np.inf, -np.inf, -1.0, 0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7e308])
_ODD_COUNTS = st.sampled_from([0, 1, 2, 3, 4, 5, 8, 16, 2**16, 2**31, 2**32 - 1])


@settings(deadline=None, max_examples=200)
@given(
    field=st.sampled_from(["dim", "n", "half_width", "p", "beta", "omega1", "omega2"]),
    odd_count=_ODD_COUNTS,
    odd_float=_ODD_FLOATS,
    length_change=st.sampled_from([0, 0, -1, 1, -16, 16, -_HEADER.size]),
)
def test_mutated_header_loads_or_raises_value_error(tmp_path_factory, field, odd_count, odd_float, length_change):
    grid = Grid(1, 8, 4.0)
    values = dict(dim=1, n=8, half_width=4.0, p=2.0, beta=0.5, omega1=1.0, omega2=1.0)
    values[field] = odd_count if field in ("dim", "n") else odd_float
    payload = _random_pair(grid, 3).c1.astype("<c16").tobytes() * 2
    blob = _HEADER.pack(MAGIC, VERSION, *values.values()) + payload
    blob = blob[: len(blob) + length_change] if length_change < 0 else blob + bytes(length_change)
    path = tmp_path_factory.mktemp("fuzz") / "mutated.snapshot"
    path.write_bytes(blob)
    try:
        pair, params = load_snapshot(path)
    except ValueError:
        return
    # whatever loads is a consistent, finite state
    assert pair.grid.shape == (pair.grid.points_per_axis,) * pair.grid.dim
    assert np.isfinite(pair.c1).all() and np.isfinite(pair.c2).all()
    assert np.isfinite([params.p, params.beta, params.omega1, params.omega2]).all()
