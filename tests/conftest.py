import numpy as np
import pytest
from hypothesis import settings

from csgs import (
    FieldPair,
    GridSpec,
    PotentialDef,
    ProblemSpec,
    build_grid,
    sample_potentials,
    validate_assumptions,
)

# Property tests draw the same small set of examples on every run.
settings.register_profile("tier1", derandomize=True, max_examples=50, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def grid_1d():
    return build_grid(GridSpec(1, 4.0, 64))


@pytest.fixture(scope="session")
def grid_1d_unit():
    return build_grid(GridSpec(1, 1.0, 64))


@pytest.fixture(scope="session")
def grid_2d():
    return build_grid(GridSpec(2, 2.0, 16))


@pytest.fixture(scope="session")
def grid_3d_small():
    return build_grid(GridSpec(3, 2.0, 8))


@pytest.fixture(scope="session")
def const_set(grid_1d):
    ps = sample_potentials(
        (PotentialDef.constant(1.0), PotentialDef.constant(1.0), PotentialDef.constant(0.3)),
        0.3,
        grid_1d,
    )
    validate_assumptions(ps, "periodic")
    return ps


@pytest.fixture(scope="session")
def spec_quartic():
    return ProblemSpec(1, 4.0, 4.0, 1.0)


def random_pair(grid, seed=0, smooth=False):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(grid.shape)
    v = rng.standard_normal(grid.shape)
    if smooth:
        u = _band_limit(u, grid)
        v = _band_limit(v, grid)
    return FieldPair(u, v, grid)


def _band_limit(f, grid):
    axes = tuple(range(grid.spec.dim))
    fh = np.fft.rfftn(f, axes=axes)
    cut = -grid._lap_multiplier <= (np.pi / (2.0 * grid.spacing)) ** 2
    return np.fft.irfftn(fh * cut, s=grid.shape, axes=axes)
