import math

import numpy as np
import pytest

from csgs import FieldPair, GridSpec, apply_laplacian, build_grid, integrate, lp_integral, translate_lattice
from csgs.errors import GridMismatchError
from csgs.grid import shifted_inverse, spectral_partials

from conftest import random_pair


class TestBuildGrid:
    def test_1d_spacing_and_weights(self):
        g = build_grid(GridSpec(1, 1.0, 4))
        assert g.spacing == 0.5
        assert g.num_nodes * g.spacing ** g.spec.dim == pytest.approx(2.0, abs=0)

    def test_2d_weights(self):
        g = build_grid(GridSpec(2, 2.0, 8))
        assert g.num_nodes == 64
        assert g.spacing ** g.spec.dim == 0.25

    def test_node_coordinates(self):
        g = build_grid(GridSpec(1, 1.0, 4))
        assert np.allclose(g.axis_coords, [-1.0, -0.5, 0.0, 0.5])

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            GridSpec(1, 1.0, 5)

    def test_nonpositive_half_width_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            GridSpec(1, 0.0, 8)

    @pytest.mark.parametrize("dim, half_width", [(3, 1e200), (2, 1e200), (3, 1e-120), (3, 1e308)])
    def test_degenerate_cell_rejected(self, dim, half_width):
        # h^d overflowed in build_grid, underflowed to a zero weight, or h itself was inf
        with pytest.raises(ValueError, match="normal finite"):
            GridSpec(dim, half_width, 8)

    def test_spectral_requires_periodic(self):
        with pytest.raises(ValueError, match="periodic"):
            GridSpec(1, 1.0, 8, "dirichlet", "spectral")


class TestIntegrate:
    def test_constant_measures_box(self, grid_1d_unit):
        assert integrate(np.ones(grid_1d_unit.shape), grid_1d_unit) == pytest.approx(2.0, abs=0)

    def test_constant_cube_norm(self, grid_1d_unit):
        u = np.full(grid_1d_unit.shape, 2.0)
        assert integrate(u**3, grid_1d_unit) == pytest.approx(16.0)
        assert lp_integral(u, 3, grid_1d_unit) == pytest.approx(16.0)

    def test_band_limited_exactness(self, grid_1d_unit):
        x = grid_1d_unit.axis_coords
        val = integrate(np.sin(np.pi * x) ** 2, grid_1d_unit)
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_mismatched_shape_rejected(self, grid_1d_unit):
        with pytest.raises(GridMismatchError):
            integrate(np.ones(7), grid_1d_unit)


class TestLaplacian:
    def test_fourier_eigenfunction(self, grid_1d_unit):
        x = grid_1d_unit.axis_coords
        f = np.sin(np.pi * x)
        lap = apply_laplacian(f, grid_1d_unit)
        assert np.max(np.abs(-lap - np.pi**2 * f)) < 1e-11

    def test_constants_harmonic(self, grid_1d_unit):
        lap = apply_laplacian(np.full(grid_1d_unit.shape, 3.7), grid_1d_unit)
        assert np.max(np.abs(lap)) < 1e-12

    def test_separable_eigenfunction_2d(self):
        g = build_grid(GridSpec(2, 1.0, 32))
        xs, ys = g.coords
        f = np.sin(np.pi * xs) * np.sin(np.pi * ys)
        lap = apply_laplacian(f, g)
        assert np.max(np.abs(-lap - 2.0 * np.pi**2 * f)) < 1e-10

    def test_fd2_consistency(self):
        g = build_grid(GridSpec(1, 1.0, 128, "periodic", "fd2"))
        x = g.axis_coords
        f = np.sin(np.pi * x)
        lap = apply_laplacian(f, g)
        # second-order stencil: eigenvalue error O(h^2)
        assert np.max(np.abs(-lap - np.pi**2 * f)) < np.pi**4 * g.spacing**2

    def test_symmetry(self, grid_2d):
        for seed in range(5):
            pair = random_pair(grid_2d, seed)
            f, g = pair.u, pair.v
            a = integrate(-apply_laplacian(f, grid_2d) * g, grid_2d)
            b = integrate(f * -apply_laplacian(g, grid_2d), grid_2d)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_positive_semidefinite(self, grid_2d):
        for seed in range(5):
            f = random_pair(grid_2d, seed).u
            val = integrate(f * -apply_laplacian(f, grid_2d), grid_2d)
            assert val >= -1e-12 * integrate(f * f, grid_2d)

    def test_dirichlet_fd2_zero_walls(self):
        g = build_grid(GridSpec(1, 1.0, 16, "dirichlet", "fd2"))
        f = np.ones(g.shape)
        lap = apply_laplacian(f, g)
        # ghost zeros outside the box make boundary rows feel the wall
        assert lap[0] != 0.0
        assert np.all(lap[1:-1] == 0.0)

    def test_shifted_inverse_undoes_shift_minus_laplacian(self, grid_3d_small):
        f = random_pair(grid_3d_small, 3).u
        x = shifted_inverse(f, 2.5, grid_3d_small)
        back = 2.5 * x - apply_laplacian(x, grid_3d_small)
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))

    def test_shifted_inverse_on_dirichlet_grid(self):
        # the DST-I inverts the zero-wall stencil exactly, where a Fourier inverse once raised
        g = build_grid(GridSpec(2, 1.0, 16, "dirichlet", "fd2"))
        f = random_pair(g, 4).u
        x = shifted_inverse(f, 1.0, g)
        assert np.max(np.abs(x - apply_laplacian(x, g) - f)) <= 1e-12 * np.max(np.abs(f))

    @pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
    def test_spectral_kernels_leave_their_argument(self, dim, n):
        # the inverse transforms run in place in their temporaries, never in the input
        g = build_grid(GridSpec(dim, 3.0, n))
        f = random_pair(g, 5).u
        before = f.copy()
        apply_laplacian(f, g)
        shifted_inverse(f, 1.0, g)
        spectral_partials(f, g)
        assert np.array_equal(f, before)

    def test_spectral_partials_eigenfunction(self, grid_1d_unit):
        x = grid_1d_unit.axis_coords
        (df,) = spectral_partials(np.sin(np.pi * x), grid_1d_unit)
        assert np.max(np.abs(df - np.pi * np.cos(np.pi * x))) < 1e-11


class TestTranslate:
    def test_identity_shift(self, grid_1d):
        f = random_pair(grid_1d, 1).u
        out = translate_lattice(f, (0,), grid_1d)
        assert np.array_equal(out, f)

    def test_two_nodes_per_unit(self):
        g = build_grid(GridSpec(1, 2.0, 8))
        f = np.arange(8, dtype=float)
        out = translate_lattice(f, (1,), g)
        assert np.array_equal(out, np.roll(f, -2))

    def test_inverse_is_exact(self, grid_2d):
        f = random_pair(grid_2d, 2).u
        out = translate_lattice(translate_lattice(f, (1, -3), grid_2d), (-1, 3), grid_2d)
        assert np.array_equal(out, f)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.5, 6.0])
    def test_norms_bit_exact(self, grid_1d, p):
        f = random_pair(grid_1d, 3).u
        shifted = translate_lattice(f, (2,), grid_1d)
        assert lp_integral(shifted, p, grid_1d) == lp_integral(f, p, grid_1d)

    def test_requires_periodic(self):
        g = build_grid(GridSpec(1, 1.0, 8, "dirichlet", "fd2"))
        with pytest.raises(GridMismatchError, match="periodic"):
            translate_lattice(np.ones(8), (1,), g)

    def test_requires_lattice_resolution(self):
        g = build_grid(GridSpec(1, 1.3, 8))
        with pytest.raises(GridMismatchError, match="lattice"):
            translate_lattice(np.ones(8), (1,), g)

    def test_rejects_fractional_shift(self, grid_1d):
        with pytest.raises(GridMismatchError, match="integer"):
            translate_lattice(np.ones(64), (0.5,), grid_1d)


class TestFieldPair:
    def test_shape_checked(self, grid_1d):
        with pytest.raises(GridMismatchError):
            FieldPair(np.ones(3), np.ones(3), grid_1d)

    def test_finite_validation(self, grid_1d):
        fp = random_pair(grid_1d)
        fp.u[0] = math.nan
        with pytest.raises(ValueError, match="finite"):
            fp.validate_finite()

    def test_scaled_and_magnitudes(self, grid_1d):
        fp = random_pair(grid_1d)
        assert np.array_equal(fp.scaled(2.0).u, 2.0 * fp.u)
        assert np.all(fp.magnitudes().v >= 0)


class TestWholeExponents:
    """lp_integral raises whole exponents by multiplication, others by pow."""

    @pytest.mark.parametrize("p", [3.0, 4.0, 5.0, 6.0])
    @pytest.mark.parametrize("boundary,mode", [("periodic", "spectral"), ("dirichlet", "fd2")])
    def test_lp_integral_matches_pow(self, p, boundary, mode):
        g = build_grid(GridSpec(1, 4.0, 64, boundary, mode))
        f = random_pair(g, 12).u
        generic = g.spacing ** g.spec.dim * np.sum(np.sort(np.abs(f).ravel() ** p))
        assert lp_integral(f, p, g) == pytest.approx(generic, rel=1e-15, abs=0)

    @pytest.mark.parametrize("p", [2.5, 4.5])
    def test_fractional_lp_integral_uses_pow(self, grid_1d, p):
        f = random_pair(grid_1d, 13).u
        generic = grid_1d.spacing * np.sum(np.sort(np.abs(f).ravel() ** p))
        assert lp_integral(f, p, grid_1d) == generic
