import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from cnls_lab import FieldPair, Grid, SystemParams, core

# Property tests draw the same examples on every run by default, so a pass
# or a failure repeats. `pytest --hypothesis-profile explore` draws fresh
# random examples (and replays stored failures) to search further.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("repeatable")


class TransformCall(tuple):
    """The input shape of one transform call, which it compares equal to;
    name is the scipy.fft function that was called."""

    def __new__(cls, shape, name):
        call = super().__new__(cls, shape)
        call.name = name
        return call


@pytest.fixture
def transform_calls(monkeypatch):
    """The transforms made through the core pairs core._fft / core._ifft
    and core._rfft / core._irfft from here on, as TransformCall records,
    taken by wrapping the scipy.fft names that core calls."""
    calls = []

    def counted(name, transform):
        def wrapper(x, *args, **kwargs):
            calls.append(TransformCall(np.shape(x), name))
            return transform(x, *args, **kwargs)

        return wrapper

    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        monkeypatch.setattr(core, name, counted(name, getattr(core, name)))
    return calls


@pytest.fixture
def traced_peak():
    """traced_peak(call) runs call() under tracemalloc and returns the peak
    of the memory traced meanwhile, in bytes; tracing stops in a finally,
    so a call that raises leaves it off."""

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture(scope="session")
def grid_1d():
    return Grid(1, 1024, 20.0)


@pytest.fixture(scope="session")
def grid_1d_wide():
    # omega = 1 tails sit right at the support gate on L = 20; rescaling
    # tests need the extra margin
    return Grid(1, 1024, 24.0)


@pytest.fixture(scope="session")
def cubic():
    return SystemParams(p=2.0, beta=0.0, omega1=1.0, omega2=1.0)


def smooth_pair(grid: Grid, seed: int, *, width: float = 2.0) -> FieldPair:
    """Random complex fields under a fixed Gaussian envelope; decays fast
    enough for every quadrature and rescaling in the suite."""
    rng = np.random.default_rng(seed)
    env = np.exp(-grid.radius_sq() / (2.0 * width**2))

    def draw():
        poly = np.zeros(grid.shape, dtype=complex)
        for ax in range(grid.dim):
            sh = [1] * grid.dim
            sh[ax] = grid.points_per_axis
            x = grid.axes[ax].reshape(sh)
            coeff = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            poly = poly + coeff[0] + coeff[1] * x + coeff[2] * x**2
        return env * poly

    return FieldPair(grid, draw(), draw())
