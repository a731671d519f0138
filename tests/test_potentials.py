import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import csgs
from csgs import (
    GridSpec,
    PotentialDef,
    build_grid,
    estimate_nu,
    sample_potentials,
    validate_assumptions,
)
from csgs.errors import ConvergenceError, GridMismatchError
from csgs.grid import apply_laplacian

CONST = PotentialDef.constant
# V = -2 + 0.5 cos(2 pi x_1) + 3 exp(-|x|^2): negative far out, positive near the origin
SIGN_CHANGING = PotentialDef.from_callback(
    lambda c: -2.0 + 0.5 * np.cos(2.0 * np.pi * c[0]) + 3.0 * np.exp(-sum(x * x for x in c))
)


def model_pair_set(grid, delta=0.5):
    """Harmonic wells with opposing quadratic coupling."""
    return sample_potentials(
        (
            PotentialDef.radial_quadratic(0.5),
            PotentialDef.radial_quadratic(0.5),
            PotentialDef.radial_quadratic(-0.25),
        ),
        delta,
        grid,
    )


class TestSampling:
    def test_constants(self, grid_1d):
        ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.5)), 0.5, grid_1d)
        assert np.all(ps.v1 == 1.0) and np.all(ps.lam == 0.5)
        assert validate_assumptions(ps, "periodic").find("V1:periodicity").passed

    def test_model_pair_values(self, grid_3d_small):
        ps = model_pair_set(grid_3d_small)
        r2 = grid_3d_small.radius_sq
        assert np.allclose(ps.v1, 0.5 * r2)
        assert np.allclose(ps.lam, -0.25 * r2)

    def test_bound_violation_samples_fine(self, grid_1d):
        # sampling itself never validates
        ps = sample_potentials((CONST(0.5), CONST(0.5), CONST(1.0)), 0.9, grid_1d)
        assert np.all(ps.lam == 1.0)

    def test_delta_range(self, grid_1d):
        with pytest.raises(ValueError, match="delta"):
            sample_potentials((CONST(1.0), CONST(1.0), CONST(0.0)), 1.0, grid_1d)

    def test_non_finite_sample_names_node(self, grid_1d):
        bad = PotentialDef.from_callback(
            lambda c: np.where(c[0] == 0.0, np.inf, c[0])
        )
        with pytest.raises(ValueError, match="non-finite at node"):
            sample_potentials((bad, CONST(1.0), CONST(0.0)), 0.5, grid_1d)

    def test_gaussian_width_positive(self):
        with pytest.raises(ValueError, match="width"):
            PotentialDef.gaussian(1.0, 0.5, 0.0)

    @pytest.mark.parametrize(
        "kind,params",
        [("gaussian", (1.0,)), ("constant", ()), ("constant", (1.0, 2.0)),
         ("cosine-lattice", (1.0,))],
    )
    def test_parameter_count_checked(self, kind, params):
        with pytest.raises(ValueError, match=rf"{kind} potential takes \d parameters"):
            PotentialDef(kind, params)


class TestPeriodicValidation:
    def test_zero_coupling_passes(self, grid_1d):
        ps = sample_potentials((CONST(1.0), CONST(2.0), CONST(0.0)), 0.5, grid_1d)
        rep = validate_assumptions(ps, "periodic")
        assert rep.overall

    def test_equality_case_passes(self, grid_1d):
        ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.5)), 0.5, grid_1d)
        assert validate_assumptions(ps, "periodic").overall

    def test_bound_violation_fails(self, grid_1d):
        ps = sample_potentials((CONST(0.5), CONST(0.5), CONST(1.0)), 0.9, grid_1d)
        rep = validate_assumptions(ps, "periodic")
        assert not rep.overall
        check = rep.find("V3:coupling")
        assert not check.passed
        # |lambda| = 1 exceeds 0.9 * 0.5 = 0.45 by 0.55
        assert check.worst_value == pytest.approx(0.55)

    def test_cosine_lattice_periodicity(self):
        g = build_grid(GridSpec(1, 2.0, 32))
        ps = sample_potentials(
            (PotentialDef.cosine_lattice(1.5, 0.5), CONST(1.0), CONST(0.0)), 0.5, g
        )
        assert validate_assumptions(ps, "periodic").overall

    def test_nonperiodic_potential_flagged(self):
        g = build_grid(GridSpec(1, 2.0, 32))
        ps = sample_potentials(
            (PotentialDef.gaussian(1.0, 0.5, 1.0), CONST(1.0), CONST(0.0)), 0.5, g
        )
        rep = validate_assumptions(ps, "periodic")
        assert not rep.find("V1:periodicity").passed

    def test_unresolved_lattice_rejected(self):
        g = build_grid(GridSpec(1, 1.25, 8))
        ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.0)), 0.5, g)
        with pytest.raises(GridMismatchError, match="period"):
            validate_assumptions(ps, "periodic")

    def test_strict_mode_rejects_zero_coupling(self, grid_1d):
        ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.0)), 0.5, grid_1d)
        rep = validate_assumptions(ps, "periodic-strict")
        assert not rep.overall

    def test_strict_mode_accepts_positive(self, grid_1d):
        ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.3)), 0.5, grid_1d)
        assert validate_assumptions(ps, "periodic-strict").overall

    def test_negative_potential_fails(self, grid_1d):
        ps = sample_potentials((CONST(-0.1), CONST(1.0), CONST(0.0)), 0.5, grid_1d)
        rep = validate_assumptions(ps, "periodic")
        assert not rep.find("V2:V1>=0").passed

    def test_monotone_in_delta(self, grid_1d):
        defs = (CONST(1.0), CONST(1.0), CONST(0.45))
        for d1, d2 in ((0.5, 0.7), (0.5, 0.95), (0.46, 0.8)):
            r1 = validate_assumptions(sample_potentials(defs, d1, grid_1d), "periodic")
            r2 = validate_assumptions(sample_potentials(defs, d2, grid_1d), "periodic")
            if r1.overall:
                assert r2.overall


def asym_pair(grid, delta=0.5):
    ref = sample_potentials((CONST(2.0), CONST(2.0), CONST(0.4)), delta, grid)
    asym = sample_potentials(
        (
            PotentialDef.gaussian(2.0, -0.5, 1.0),
            PotentialDef.gaussian(2.0, -0.5, 1.0),
            PotentialDef.gaussian(0.4, 0.1, 1.0),
        ),
        delta,
        grid,
    )
    return ref, asym


class TestAsymptoticValidation:
    def test_well_formed_pair_passes(self, grid_1d):
        ref, asym = asym_pair(grid_1d)
        rep = validate_assumptions(asym, "asymptotic", reference=ref)
        assert rep.overall
        assert rep.find("ref:V1:periodicity").passed and rep.find("ref:V3:coupling").passed

    def test_reference_required(self, grid_1d):
        _, asym = asym_pair(grid_1d)
        with pytest.raises(ValueError, match="reference"):
            validate_assumptions(asym, "asymptotic")

    def test_swapped_pair_fails_ordering(self, grid_1d):
        ref, asym = asym_pair(grid_1d)
        rep = validate_assumptions(ref, "asymptotic", reference=asym)
        assert not rep.overall
        # the Gaussian reference is not periodic either
        assert not rep.find("ref:V1:periodicity").passed

    def test_tie_fails_strict_ordering(self, grid_1d):
        ref, _ = asym_pair(grid_1d)
        rep = validate_assumptions(ref, "asymptotic", reference=ref)
        assert not rep.find("V4:V1<V1o").passed

    def test_slow_decay_fails_tail(self, grid_1d):
        ref = sample_potentials((CONST(2.0), CONST(2.0), CONST(0.4)), 0.5, grid_1d)
        wide = sample_potentials(
            (
                PotentialDef.gaussian(2.0, -0.5, 40.0),
                PotentialDef.gaussian(2.0, -0.5, 40.0),
                PotentialDef.gaussian(0.4, 0.1, 40.0),
            ),
            0.5,
            grid_1d,
        )
        rep = validate_assumptions(wide, "asymptotic", reference=ref)
        assert not rep.find("V4:tail-decay").passed

    def test_strict_coupling_mode(self, grid_1d):
        ref, asym = asym_pair(grid_1d)
        assert validate_assumptions(asym, "asymptotic-strict", reference=ref).overall

    def test_tail_tolerance_must_be_finite_and_positive(self, grid_1d):
        # a wide well: the shell gap 0.5 exp(-(3.2/3)^2) = 0.16 fails the default 1e-2
        ref = sample_potentials((CONST(2.0), CONST(2.0), CONST(0.4)), 0.5, grid_1d)
        wide = sample_potentials(
            (PotentialDef.gaussian(2.0, -0.5, 3.0), PotentialDef.gaussian(2.0, -0.5, 3.0),
             CONST(0.4)),
            0.5,
            grid_1d,
        )
        assert not validate_assumptions(wide, "asymptotic", reference=ref).find("V4:tail-decay").passed
        for bad in (math.inf, math.nan, 0.0, -1e-2):
            with pytest.raises(ValueError, match="tail_tol"):
                validate_assumptions(wide, "asymptotic", reference=ref, tail_tol=bad)


class TestNonexistenceValidation:
    def test_model_pair_passes_with_constants(self, grid_3d_small):
        rep = validate_assumptions(model_pair_set(grid_3d_small), "nonexistence")
        assert rep.overall
        assert rep.find("V7:V1").worst_value == pytest.approx(2.0, abs=1e-10)
        assert rep.find("V7:V2").worst_value == pytest.approx(2.0, abs=1e-10)
        assert rep.find("V8:lambda").worst_value == pytest.approx(2.0, abs=1e-10)
        assert "analytic" in rep.find("V8:lambda").note

    def test_finite_difference_path(self, grid_3d_small):
        r2 = lambda c: sum(x * x for x in c)
        defs = (
            PotentialDef.from_callback(lambda c: 0.5 * r2(c)),
            PotentialDef.from_callback(lambda c: 0.5 * r2(c)),
            PotentialDef.from_callback(lambda c: -0.25 * r2(c)),
        )
        ps = sample_potentials(defs, 0.5, grid_3d_small)
        rep = validate_assumptions(ps, "nonexistence")
        assert rep.overall
        assert rep.find("V7:V1").worst_value == pytest.approx(2.0, abs=1e-6)
        assert "finite-difference" in rep.find("V7:V1").note

    def test_cosine_lattice_radial_derivative_matches_finite_differences(self):
        # the fd path's error is (h/2)^4 |x| (2 pi)^5 b / 30, 3e-8 at h = 1/128
        g = build_grid(GridSpec(1, 1.0, 256))
        lattice = PotentialDef.cosine_lattice(2.0, 0.5)
        same = PotentialDef.from_callback(lambda c: 2.0 + 0.5 * np.cos(2.0 * np.pi * c[0]))
        analytic, path = lattice.radial_derivative(g.coords, g.spacing)
        fd, fd_path = same.radial_derivative(g.coords, g.spacing)
        assert (path, fd_path) == ("analytic", "finite-difference")
        assert np.max(np.abs(analytic - fd)) <= 1e-6

    def test_growing_coupling_fails_sign(self, grid_3d_small):
        ps = sample_potentials(
            (
                PotentialDef.radial_quadratic(0.5),
                PotentialDef.radial_quadratic(0.5),
                PotentialDef.radial_quadratic(0.25),
            ),
            0.5,
            grid_3d_small,
        )
        rep = validate_assumptions(ps, "nonexistence")
        v8 = rep.find("V8:lambda")
        assert not v8.passed
        assert v8.worst_value == pytest.approx(6.0)  # the largest <grad lambda, x>, at a corner
        assert v8.note == "<grad lambda,x> <= 0 fails (analytic)"  # no C is admissible

    def test_shrinking_potential_fails_sign(self, grid_3d_small):
        # <grad V1, x> = -|x|^2 exp(-|x|^2) is least, -1/e, at |x| = 1
        defs = (PotentialDef.gaussian(1.0, 0.5, 1.0), PotentialDef.radial_quadratic(0.5), CONST(0.1))
        rep = validate_assumptions(sample_potentials(defs, 0.5, grid_3d_small), "nonexistence")
        v7 = rep.find("V7:V1")
        assert not v7.passed
        assert v7.worst_value == pytest.approx(-math.exp(-1.0))
        assert v7.note == "<grad V,x> >= 0 fails (analytic)"  # no C is admissible

    @pytest.mark.parametrize(
        "index, name, note",
        [
            (0, "V7:V1", "<grad V,x> > 0 where V = 0 (analytic)"),
            (2, "V8:lambda", "<grad l,x> != 0 where lambda = 0 (analytic)"),
        ],
        ids=["V7", "V8"],
    )
    def test_vanishing_coefficient_that_moves_fails(self, grid_3d_small, index, name, note):
        # f = 0 everywhere with <grad f, x> = |x|^2: no growth constant C gives |<grad f, x>| <= C f
        r2 = lambda c: sum(x * x for x in c)
        defs = [PotentialDef.radial_quadratic(c) for c in (0.5, 0.5, -0.25)]  # the model pair
        defs[index] = PotentialDef.from_callback(lambda c: np.zeros_like(c[0]), r2)
        rep = validate_assumptions(sample_potentials(tuple(defs), 0.5, grid_3d_small), "nonexistence")
        check = rep.find(name)
        assert not check.passed
        assert check.note == note
        assert check.worst_value == pytest.approx(12.0)  # |x|^2 at a corner of [-2, 2)^3


class TestEstimateNu:
    def test_constant_potential(self, grid_1d):
        ps = sample_potentials((CONST(1.0), CONST(2.5), CONST(0.0)), 0.5, grid_1d)
        nu1, nu2 = estimate_nu(ps)
        assert nu1 == pytest.approx(1.0, abs=1e-8)
        assert nu2 == pytest.approx(2.5, abs=1e-8)

    @pytest.mark.parametrize("dim,n,half_width,c", [(1, 64, 4.0, 1.0), (2, 16, 2.0, 1.0),
                                                    (3, 8, 2.0, 1.5)])
    def test_dirichlet_constant_potential(self, dim, n, half_width, c):
        g = build_grid(GridSpec(dim, half_width, n, "dirichlet", "fd2"))
        ps = sample_potentials((CONST(c), CONST(c), CONST(0.0)), 0.5, g)
        nu1, _ = estimate_nu(ps)
        # lowest eigenvalue of the zero-wall stencil: n interior nodes, n + 1 gaps
        lam = c + dim * (2.0 - 2.0 * math.cos(math.pi / (n + 1))) / g.spacing**2
        assert abs(nu1 - lam) <= 1e-10 * lam

    def test_zero_potential_flagged(self, grid_1d):
        ps = sample_potentials((CONST(0.0), CONST(1.0), CONST(0.0)), 0.5, grid_1d)
        rep = validate_assumptions(ps, "periodic", compute_nu=True)
        assert abs(rep.nu1) <= 1e-8
        assert not rep.find("V2:nu1>0").passed

    @pytest.mark.parametrize(
        "spec, v1",
        [
            (GridSpec(1, 1.0, 64), PotentialDef.cosine_lattice(1.0, 1.0)),
            (GridSpec(1, 4.0, 64), SIGN_CHANGING),
            (GridSpec(2, 2.0, 16, "periodic", "fd2"), SIGN_CHANGING),
            (GridSpec(1, 4.0, 64, "dirichlet", "fd2"), SIGN_CHANGING),
            (GridSpec(2, 2.0, 16, "dirichlet", "fd2"), SIGN_CHANGING),
            (GridSpec(1, 4.0, 4, "dirichlet", "fd2"), SIGN_CHANGING),  # LOBPCG goes dense
        ],
        ids=["cosine-1d", "spectral-1d", "fd2-2d", "dirichlet-1d", "dirichlet-2d", "four-nodes"],
    )
    def test_against_dense_oracle(self, spec, v1):
        g = build_grid(spec)
        ps = sample_potentials((v1, CONST(1.0), CONST(0.0)), 0.5, g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nu1, _ = estimate_nu(ps)
        n = g.num_nodes
        dense = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            dense[:, j] = -apply_laplacian(e.reshape(g.shape), g).ravel() + ps.v1.ravel() * e
        oracle = float(np.linalg.eigvalsh(0.5 * (dense + dense.T))[0])
        assert abs(nu1 - oracle) <= 1e-10 * max(1.0, abs(oracle))

    def test_wrong_pair_raises(self, grid_1d, monkeypatch):
        # the residual test after the call catches an eigenpair LOBPCG got wrong
        import scipy.sparse.linalg

        monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", lambda A, X, **kw: (np.array([0.5]), X))
        ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.0)), 0.5, grid_1d)
        with pytest.raises(ConvergenceError, match="residual"):
            estimate_nu(ps)

    def test_nonnegative_for_nonnegative_potentials(self, grid_1d):
        rng = np.random.default_rng(7)
        vals = rng.uniform(0.0, 3.0)
        ps = sample_potentials((CONST(vals), CONST(1.0), CONST(0.0)), 0.5, grid_1d)
        nu1, nu2 = estimate_nu(ps)
        assert nu1 >= -1e-12 and nu2 >= -1e-12


def test_import_loads_no_scipy():
    # scipy serves estimate_nu and the Dirichlet shifted_inverse, which import it on first call
    src = str(Path(csgs.__file__).resolve().parents[1])
    loaded = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import csgs, numpy; {loaded}\n"
        "from csgs.grid import shifted_inverse\n"
        "def invert(boundary, mode):\n"
        "    g = csgs.build_grid(csgs.GridSpec(1, 1.0, 8, boundary, mode))\n"
        "    shifted_inverse(numpy.ones(g.shape), 1.0, g)\n"
        f"invert('periodic', 'fd2'); {loaded}\n"
        "invert('dirichlet', 'fd2'); print('scipy.fft' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[]", "[]", "True"]
