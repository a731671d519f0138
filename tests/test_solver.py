from dataclasses import replace

import numpy as np
import pytest

from csgs import (
    FieldPair,
    GridSpec,
    PotentialDef,
    ProblemSpec,
    SolveOptions,
    aubin_talenti_bubble,
    build_grid,
    compare_energies,
    energy,
    estimate_sobolev_constant,
    minimize_ground_state,
    nehari_value,
    nonneg_refine,
    pair_invariants,
    sample_potentials,
    sobolev_quotient,
    sweep_mu,
    translate_lattice,
    validate_assumptions,
)
from csgs.errors import GridMismatchError
from csgs.grid import apply_laplacian

CONST = PotentialDef.constant
QUICK = SolveOptions(max_iters=4000)


@pytest.fixture(scope="module")
def setup_1d():
    g = build_grid(GridSpec(1, 4.0, 64))
    ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.3)), 0.3, g)
    validate_assumptions(ps, "periodic")
    spec = ProblemSpec(1, 4.0, 4.0, 1.0)
    return g, ps, spec


class TestMinimize:
    def test_converges_with_positive_energy(self, setup_1d):
        g, ps, spec = setup_1d
        rep = minimize_ground_state(ps, spec, g, QUICK)
        assert rep.converged and rep.failure is None
        assert rep.grad_norm <= QUICK.grad_tol
        assert rep.energy > 0
        assert rep.iterations > 0
        assert len(rep.energy_trace) == len(rep.grad_trace)

    def test_trace_non_increasing(self, setup_1d):
        g, ps, spec = setup_1d
        rep = minimize_ground_state(ps, spec, g, QUICK)
        assert all(b <= a for a, b in zip(rep.energy_trace, rep.energy_trace[1:]))

    def test_manifold_residual(self, setup_1d):
        g, ps, spec = setup_1d
        rep = minimize_ground_state(ps, spec, g, QUICK)
        inv = pair_invariants(rep.field, ps, spec, g)
        assert abs(nehari_value(rep.field, ps, spec, g)) <= 1e-8 * max(1.0, inv.quad)

    def test_energy_level_lower_bound(self, setup_1d):
        g, ps, spec = setup_1d
        rep = minimize_ground_state(ps, spec, g, QUICK)
        floor = (0.5 - 1.0 / spec.p) * (1.0 - ps.delta) * rep.field_norm_e_sq
        assert rep.energy >= floor - 1e-9

    def test_bitwise_determinism(self, setup_1d):
        g, ps, spec = setup_1d
        opts = SolveOptions(init="random", seed=5, max_iters=500)
        r1 = minimize_ground_state(ps, spec, g, opts)
        r2 = minimize_ground_state(ps, spec, g, opts)
        assert np.array_equal(r1.field.u, r2.field.u)
        assert np.array_equal(r1.field.v, r2.field.v)
        assert r1.energy == r2.energy
        assert r1.energy_trace == r2.energy_trace

    def test_zero_budget_returns_initial_projection(self, setup_1d):
        g, ps, spec = setup_1d
        rep = minimize_ground_state(ps, spec, g, SolveOptions(max_iters=0))
        assert not rep.converged
        assert rep.iterations == 0
        assert len(rep.energy_trace) == 1
        assert abs(nehari_value(rep.field, ps, spec, g)) <= 1e-8
        assert rep.failure == "budget"

    def test_zero_budget_from_a_converged_start_converges(self, setup_1d):
        g, ps, spec = setup_1d
        start = minimize_ground_state(ps, spec, g, QUICK)
        assert start.converged
        for budget in (0, 1):
            rep = minimize_ground_state(ps, spec, g, SolveOptions(max_iters=budget, init="file"),
                                        init_field=start.field)
            assert rep.converged and rep.failure is None and rep.iterations == 0
            assert rep.grad_norm <= QUICK.grad_tol

    def test_stalled_line_search_reports_stagnated(self):
        g = build_grid(GridSpec(1, 4.0, 128, "periodic", "fd2"))
        ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.3)), 0.3, g)
        validate_assumptions(ps, "periodic")
        spec = ProblemSpec(1, 4.0, 4.0, 1.0)
        rep = minimize_ground_state(ps, spec, g, SolveOptions(grad_tol=1e-15))
        assert not rep.converged
        assert rep.iterations < SolveOptions().max_iters
        assert rep.failure == "stagnated"

    def test_fd2_solve_converges_below_the_root_residual(self):
        # each projection takes the Newton step that met the root's tolerance, so the
        # radial part of the gradient stays below the tolerance
        g = build_grid(GridSpec(1, 4.0, 128, "periodic", "fd2"))
        ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.3)), 0.3, g)
        spec = ProblemSpec(1, 4.0, 4.0, 1.0)
        rep = minimize_ground_state(ps, spec, g, SolveOptions(grad_tol=1e-13))
        assert rep.converged and rep.failure is None
        assert rep.grad_norm <= 1e-13

    def test_dirichlet_solve_converges(self):
        g = build_grid(GridSpec(1, 4.0, 128, "dirichlet", "fd2"))
        ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.3)), 0.3, g)
        spec = ProblemSpec(1, 4.0, 4.0, 1.0)
        rep = minimize_ground_state(ps, spec, g, SolveOptions())
        assert rep.converged and rep.failure is None
        assert rep.grad_norm <= SolveOptions().grad_tol

    def test_degenerate_init_reports_failure(self, setup_1d):
        g, ps, _ = setup_1d
        spec0 = ProblemSpec(1, 4.0, 4.0, 0.0)
        u_only = FieldPair(np.exp(-g.radius_sq), np.zeros(g.shape), g)
        rep = minimize_ground_state(ps, spec0, g, QUICK, init_field=u_only)
        assert not rep.converged
        assert rep.failure is not None and "projection" in rep.failure

    def test_nonpositive_form_start_reports_failure(self):
        # unvalidated wells: B < 0 for a smooth start, so it has no fibering scale
        g = build_grid(GridSpec(1, 4.0, 64))
        ps = sample_potentials((CONST(-5.0), CONST(-5.0), CONST(0.3)), 0.3, g)
        rep = minimize_ground_state(ps, ProblemSpec(1, 4.0, 4.0, 1.0), g, QUICK)
        assert not rep.converged and rep.iterations == 0
        assert rep.failure.startswith("initial projection failed: quadratic form B")
        assert rep.energy < 0 and rep.energy_trace == [rep.energy]

    def test_dim_mismatch_rejected(self, setup_1d):
        g, ps, _ = setup_1d
        with pytest.raises(GridMismatchError):
            minimize_ground_state(ps, ProblemSpec(2, 4.0, 4.0, 1.0), g, QUICK)

    def test_seed_variation_same_energy(self, setup_1d):
        g, ps, spec = setup_1d
        energies = []
        for seed in range(3):
            r = minimize_ground_state(ps, spec, g, SolveOptions(init="random", seed=seed))
            assert r.converged
            energies.append(r.energy)
        assert max(energies) - min(energies) <= 1e-8


class TestCarriedLaplacians:
    """States carry their Laplacians through the descent; no drift shows."""

    @pytest.mark.parametrize(
        "gspec,spec,opts",
        [
            (GridSpec(3, 4.0, 16), ProblemSpec(3, 4.0, 6.0, 1.0), QUICK),
            (GridSpec(1, 4.0, 64, "periodic", "fd2"), ProblemSpec(1, 4.0, 4.0, 1.0), QUICK),
            (GridSpec(1, 4.0, 64, "dirichlet", "fd2"), ProblemSpec(1, 4.0, 4.0, 1.0), QUICK),
        ],
        ids=["spectral-3d", "fd2-periodic", "fd2-dirichlet"],
    )
    def test_reported_energy_matches_fresh_evaluation(self, gspec, spec, opts):
        g = build_grid(gspec)
        ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.3)), 0.3, g)
        if g.is_periodic:
            validate_assumptions(ps, "periodic")
        rep = minimize_ground_state(ps, spec, g, opts)
        assert rep.iterations > 20  # many carried updates, not a fresh start
        fresh = energy(rep.field, ps, spec, g).total
        assert abs(fresh - rep.energy) <= 1e-12 * abs(rep.energy)

    def test_two_laplacians_per_iteration(self, setup_1d, monkeypatch):
        import csgs.functional
        import csgs.solver

        g, ps, spec = setup_1d
        calls = []  # fields transformed per call

        def counted(f, grid, **out):
            calls.append(1 if f.ndim == grid.spec.dim else len(f))
            return apply_laplacian(f, grid, **out)

        monkeypatch.setattr(csgs.solver, "apply_laplacian", counted)
        monkeypatch.setattr(csgs.functional, "apply_laplacian", counted)
        rep = minimize_ground_state(ps, spec, g)
        assert rep.converged
        # two fields for the start, then the new gradient's two per iteration, one call each
        assert sum(calls) == 2 + 2 * rep.iterations
        assert len(calls) == 1 + rep.iterations


class TestDecoupledOracle:
    def test_single_equation_reduction(self, setup_1d):
        """With no coupling and mu = 0 the v-equation solves alone."""
        g, _, _ = setup_1d
        ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.0)), 0.5, g)
        validate_assumptions(ps, "periodic")
        spec = ProblemSpec(1, 4.0, 4.0, 0.0)
        w = np.exp(-g.radius_sq / 2.0)
        init = FieldPair(np.zeros(g.shape), w, g)
        rep = minimize_ground_state(ps, spec, g, QUICK, init_field=init)
        assert rep.converged
        assert np.max(np.abs(rep.field.u)) == 0.0  # u stays exactly zero

        c_oracle = _scalar_quartic_ground_state(g)
        assert rep.energy == pytest.approx(c_oracle, abs=1e-8)


def _scalar_quartic_ground_state(g):
    """Independent steepest-descent minimizer for -Lap w + w = w^3 on the grid."""
    from csgs.grid import apply_laplacian, integrate

    w = np.exp(-g.radius_sq / 2.0)

    def project(f):
        b = integrate(f * (-apply_laplacian(f, g)) + f * f, g)
        n4 = integrate(f**4, g)
        t = np.sqrt(b / n4)
        return t * f, 0.5 * t * t * b - 0.25 * t**4 * n4

    f, e = project(w)
    step = 0.2
    for _ in range(20000):
        grad = -apply_laplacian(f, g) + f - f**3
        gn2 = integrate(grad * grad, g)
        if np.sqrt(gn2) <= 1e-9:
            break
        cand, ec = project(f - step * grad)
        if np.isfinite(ec) and ec <= e:
            f, e = cand, ec
            step *= 1.3
        else:
            step *= 0.5
    return e


class TestNonnegRefine:
    def test_nonnegative_input_unchanged(self, setup_1d):
        g, ps, spec = setup_1d
        rep = minimize_ground_state(ps, spec, g, QUICK)
        base = nonneg_refine(rep, ps, spec, g)
        assert abs(base.energy - rep.energy) <= 1e-10 * max(1.0, abs(rep.energy))
        assert np.all(base.field.u >= 0) and np.all(base.field.v >= 0)

    def test_sign_flip_equivalence(self, setup_1d):
        g, ps, spec = setup_1d
        rep = minimize_ground_state(ps, spec, g, QUICK)
        flipped = rep.__class__(**{**rep.__dict__, "field": rep.field.scaled(-1.0)})
        ref = nonneg_refine(flipped, ps, spec, g)
        assert abs(ref.energy - rep.energy) <= 1e-10 * max(1.0, abs(rep.energy))

    def test_a_polish_then_a_zero_iteration_projection(self, setup_1d):
        g, ps, spec = setup_1d
        rep = minimize_ground_state(ps, spec, g, SolveOptions(max_iters=20))
        ref = nonneg_refine(rep, ps, spec, g)
        polished = minimize_ground_state(ps, spec, g, SolveOptions(max_iters=500, init="file"),
                                         init_field=rep.field.magnitudes())
        final = minimize_ground_state(ps, spec, g, SolveOptions(max_iters=0, init="file"),
                                      init_field=polished.field.magnitudes())
        assert np.array_equal(ref.field.u, final.field.u)
        assert np.array_equal(ref.field.v, final.field.v)
        assert (ref.energy, ref.grad_norm, ref.field_norm_e_sq) == (
            final.energy, final.grad_norm, final.field_norm_e_sq)
        assert (ref.iterations, ref.trials, ref.converged, ref.failure) == (
            polished.iterations, polished.trials, polished.converged, polished.failure)
        assert ref.energy_trace == polished.energy_trace + [final.energy]
        assert ref.grad_trace == polished.grad_trace + [final.grad_norm]
        assert ref.gradient_evals == polished.gradient_evals + 1

    @pytest.mark.parametrize("amplitude", [0.0, 1e80], ids=["zero", "huge"])
    def test_start_failure_passes_through(self, setup_1d, amplitude):
        # the zero start is degenerate, the huge one has invariants that are not finite
        g, ps, spec = setup_1d
        bump = amplitude * np.exp(-g.radius_sq)
        start = minimize_ground_state(ps, spec, g, QUICK, init_field=FieldPair(bump, bump, g))
        assert start.failure.startswith("initial projection failed: ")
        ref = nonneg_refine(start, ps, spec, g)
        assert not ref.converged and ref.iterations == 0
        assert ref.failure == start.failure

    def test_mixed_sign_improves_with_positive_coupling(self, setup_1d):
        g, ps, spec = setup_1d
        rep = minimize_ground_state(ps, spec, g, QUICK)
        u, v = rep.field.u.copy(), rep.field.v.copy()
        u[: g.num_nodes // 2] *= -1.0  # break the sign alignment
        from csgs import energy
        from csgs.nehari import nehari_project

        mixed = FieldPair(u, v, g)
        mixed_on, _ = nehari_project(mixed, ps, spec, g)
        e_mixed = energy(mixed_on, ps, spec, g).total
        abs_on, _ = nehari_project(mixed.magnitudes(), ps, spec, g)
        e_abs = energy(abs_on, ps, spec, g).total
        assert e_abs < e_mixed


class TestSobolev:
    def test_quotient_scaling_invariance(self):
        g = build_grid(GridSpec(3, 8.0, 24))
        u = aubin_talenti_bubble(g)
        q1 = sobolev_quotient(u, g)
        q2 = sobolev_quotient(2.0 * u, g)
        assert q2 == pytest.approx(q1, rel=1e-12)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan])
    def test_bubble_rejects_a_nonpositive_or_non_finite_scale(self, scale):
        # scale 0 gave zeros with a NaN at the origin node; -1 acted as 1
        with pytest.raises(ValueError, match="bubble scale"):
            aubin_talenti_bubble(build_grid(GridSpec(3, 2.0, 8)), scale)

    def test_polish_stays_near_bubble(self):
        g = build_grid(GridSpec(3, 8.0, 48, "periodic", "fd2"))
        s = estimate_sobolev_constant(g)
        bubble_q = sobolev_quotient(aubin_talenti_bubble(g), g)
        assert abs(s - bubble_q) <= 0.05 * bubble_q
        assert s <= bubble_q

    def test_trust_ball_bounds_the_move(self):
        g = build_grid(GridSpec(3, 8.0, 32, "periodic", "fd2"))
        s_tight = estimate_sobolev_constant(g, search_radius=0.005)
        s_wide = estimate_sobolev_constant(g, search_radius=0.02)
        bubble_q = sobolev_quotient(aubin_talenti_bubble(g), g)
        assert s_wide <= s_tight <= bubble_q

    def test_requires_3d(self, grid_1d):
        with pytest.raises(GridMismatchError):
            estimate_sobolev_constant(grid_1d)

    @pytest.mark.parametrize(
        "mode, half_width, n, radius, expected",
        [
            ("fd2", 8.0, 32, 0.01, "0x1.18deac73d41dep+2"),
            ("fd2", 8.0, 32, 0.005, "0x1.1b2e9e40bb1cap+2"),
            ("fd2", 8.0, 32, 0.02, "0x1.1442c1cab2575p+2"),
            ("spectral", 6.0, 24, 0.01, "0x1.090ba356b9ef6p+2"),
        ],
    )
    def test_pinned_estimates(self, mode, half_width, n, radius, expected):
        """Estimates pinned to the last bit: a stopping rule that ends the polish elsewhere moves them."""
        g = build_grid(GridSpec(3, half_width, n, "periodic", mode))
        assert estimate_sobolev_constant(g, search_radius=radius).hex() == expected

    def test_one_laplacian_per_quotient_evaluation(self, monkeypatch):
        import csgs.solver

        g = build_grid(GridSpec(3, 8.0, 32, "periodic", "fd2"))
        laplacians, quotients = [], []
        parts = csgs.solver._quotient_parts

        def counted_laplacian(f, grid):
            laplacians.append(1)
            return apply_laplacian(f, grid)

        def counted_parts(f, grid):
            quotients.append(1)
            return parts(f, grid)

        monkeypatch.setattr(csgs.solver, "apply_laplacian", counted_laplacian)
        monkeypatch.setattr(csgs.solver, "_quotient_parts", counted_parts)
        estimate_sobolev_constant(g)
        # the start and three accepted trials; the last iteration stops on the wall slope
        assert len(laplacians) == len(quotients) == 4


class TestSweep:
    def test_monotone_subcritical(self, setup_1d):
        g, ps, spec = setup_1d
        sw = sweep_mu(ps, spec, g, [0.0, 1.0, 2.0, 4.0, 8.0], QUICK)
        assert all(sw.converged)
        assert all(b < a for a, b in zip(sw.energies, sw.energies[1:]))
        assert sw.threshold is None and sw.mu0_estimate is None

    def test_mu_zero_entry_valid(self, setup_1d):
        g, ps, spec = setup_1d
        sw = sweep_mu(ps, spec, g, [0.0], QUICK)
        assert sw.converged[0] and sw.energies[0] > 0

    def test_failed_solve_reports_its_warm_start(self, setup_1d, monkeypatch):
        import csgs.solver
        from csgs.errors import NonFiniteEnergyError

        g, ps, spec = setup_1d
        inner = csgs.solver.fibering_scale_from_invariants

        def failing_at_mu_2(inv, spec):
            if spec.mu == 2.0:
                raise NonFiniteEnergyError("trial energy is not finite")
            return inner(inv, spec)

        monkeypatch.setattr(csgs.solver, "fibering_scale_from_invariants", failing_at_mu_2)
        sw = sweep_mu(ps, spec, g, [1.0, 2.0], QUICK)
        assert sw.converged == [True, False]
        # the warm solve at mu = 2 starts from the mu = 1 field and is listed first
        warm = sw.reports[0].field
        rep = sw.reports[1]
        assert rep.failure == "initial projection failed: trial energy is not finite"
        assert rep.iterations == 0
        assert np.array_equal(rep.field.u, warm.u) and np.array_equal(rep.field.v, warm.v)

    @pytest.mark.parametrize("s_const", [-1.0, np.nan, 0.0])
    def test_bad_sobolev_constant_rejected_before_any_solve(self, s_const, monkeypatch):
        import csgs.solver

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(csgs.solver, "minimize_ground_state", no_solve)
        g = build_grid(GridSpec(3, 4.0, 8))
        ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.3)), 0.3, g)
        with pytest.raises(ValueError, match="Sobolev constant"):
            sweep_mu(ps, ProblemSpec(3, 4.0, 6.0, 1.0), g, [1.0], sobolev_constant=s_const)

    def test_supplied_sobolev_constant_sets_the_threshold(self):
        from csgs.solver import compactness_threshold

        g = build_grid(GridSpec(3, 4.0, 8))
        ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.3)), 0.3, g)
        sw = sweep_mu(ps, ProblemSpec(3, 4.0, 6.0, 1.0), g, [1.0, 16.0], QUICK,
                      sobolev_constant=4.0)
        assert sw.threshold == compactness_threshold(4.0, 3) == 8.0 / 3.0
        assert all(sw.converged)
        # c(1) = 7.30 lies above the threshold 8/3, c(16) = 0.92 below it
        assert sw.energies[0] > sw.threshold > sw.energies[1]
        assert sw.mu0_estimate == 16.0
        assert [r[2:] for r in sw.rows()[1:]] == [(8.0 / 3.0, False), (8.0 / 3.0, True)]

    def test_empty_list_rejected(self, setup_1d):
        g, ps, spec = setup_1d
        with pytest.raises(ValueError, match="non-empty"):
            sweep_mu(ps, spec, g, [], QUICK)

    def test_non_increasing_list_rejected(self, setup_1d):
        g, ps, spec = setup_1d
        with pytest.raises(ValueError, match="increasing"):
            sweep_mu(ps, spec, g, [1.0, 1.0], QUICK)


@pytest.fixture(scope="module")
def pair_reports():
    g = build_grid(GridSpec(1, 4.0, 64))
    ref = sample_potentials((CONST(2.0), CONST(2.0), CONST(0.4)), 0.5, g)
    validate_assumptions(ref, "periodic")
    asym = sample_potentials(
        (
            PotentialDef.gaussian(2.0, -0.5, 1.0),
            PotentialDef.gaussian(2.0, -0.5, 1.0),
            PotentialDef.gaussian(0.4, 0.1, 1.0),
        ),
        0.5,
        g,
    )
    rep = validate_assumptions(asym, "asymptotic", reference=ref)
    assert rep.overall
    spec = ProblemSpec(1, 4.0, 4.0, 1.0)
    r_per = minimize_ground_state(ref, spec, g, QUICK)
    r_asym = minimize_ground_state(asym, spec, g, QUICK)
    assert r_per.converged and r_asym.converged
    return r_per, r_asym


class TestCompare:
    def test_gap_strictly_positive(self, pair_reports):
        r_per, r_asym = pair_reports
        cmp = compare_energies(r_per, r_asym)
        assert cmp.passed and cmp.gap > 1e-9

    def test_identical_reports_fail(self, pair_reports):
        r_per, _ = pair_reports
        cmp = compare_energies(r_per, r_per)
        assert not cmp.passed and cmp.gap == 0.0

    def test_swapped_reports_negative_gap(self, pair_reports):
        r_per, r_asym = pair_reports
        cmp = compare_energies(r_asym, r_per)
        assert not cmp.passed and cmp.gap < 0.0

    def test_slack_scales_with_energy(self, pair_reports):
        r_per, r_asym = pair_reports
        # 5e-9 apart near 1e4 is rounding noise, however it exceeds an absolute 1e-9
        near = compare_energies(replace(r_per, energy=1e4 + 5e-9), replace(r_asym, energy=1e4))
        assert near.gap > 1e-9 and not near.passed
        far = compare_energies(replace(r_per, energy=1e4 + 1e-4), replace(r_asym, energy=1e4))
        assert far.passed

    @pytest.mark.parametrize("margin", [-1.0, -np.inf, np.inf, np.nan])
    def test_loosening_margin_rejected(self, pair_reports, margin):
        # the asymptotic level 0.5 above the periodic one must never pass
        r_per, r_asym = pair_reports
        above = replace(r_asym, energy=r_per.energy + 0.5)
        with pytest.raises(ValueError, match="margin"):
            compare_energies(r_per, above, margin=margin)

    def test_grid_mismatch_rejected(self, pair_reports):
        r_per, _ = pair_reports
        g2 = build_grid(GridSpec(1, 4.0, 32))
        ps2 = sample_potentials((CONST(2.0), CONST(2.0), CONST(0.4)), 0.5, g2)
        validate_assumptions(ps2, "periodic")
        other = minimize_ground_state(ps2, ProblemSpec(1, 4.0, 4.0, 1.0), g2, QUICK)
        with pytest.raises(GridMismatchError):
            compare_energies(r_per, other)

    def test_spec_mismatch_rejected(self, pair_reports):
        r_per, r_asym = pair_reports
        other_mu = replace(r_asym, spec=r_asym.spec.with_mu(2.0))
        with pytest.raises(GridMismatchError, match="mu"):
            compare_energies(r_per, other_mu)


class TestReadOnlyStarts:
    """The descent writes only its own arrays: a warm start and every earlier report keep their bits."""

    def test_init_field_is_left_as_it_was(self, setup_1d):
        g, ps, spec = setup_1d
        w = np.exp(-g.radius_sq / 2.0)
        init = FieldPair(0.9 * w, 1.1 * w, g)
        before = init.copy()
        rep = minimize_ground_state(ps, spec, g, QUICK, init_field=init)
        assert rep.converged and rep.iterations > 20
        assert init.u.tobytes() == before.u.tobytes() and init.v.tobytes() == before.v.tobytes()
        assert rep.field.u.flags.owndata and rep.field.v.flags.owndata

    def test_sweep_leaves_earlier_fields_as_they_were(self, setup_1d, monkeypatch):
        import csgs.solver

        g, ps, spec = setup_1d
        inner = csgs.solver.minimize_ground_state
        returned = []

        def recorded(*args, **kwargs):
            rep = inner(*args, **kwargs)
            returned.append((rep, rep.field.u.tobytes(), rep.field.v.tobytes()))
            return rep

        monkeypatch.setattr(csgs.solver, "minimize_ground_state", recorded)
        sw = sweep_mu(ps, spec, g, [0.5, 1.0, 2.0], QUICK)
        assert all(sw.converged) and len(returned) == 5  # one cold, then a warm and a cold per mu
        for rep, u, v in returned:
            assert (rep.field.u.tobytes(), rep.field.v.tobytes()) == (u, v)


class TestRoundingFloor:
    """One descent loop: at the rounding floor of the energy the line search
    also accepts a step within rounding noise of the lowest recorded energy
    when it lowers the gradient norm."""

    def test_fd2_solve_converges_past_the_floor(self, monkeypatch):
        import csgs.solver

        g = build_grid(GridSpec(1, 4.0, 128, "periodic", "fd2"))
        ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.3)), 0.3, g)
        validate_assumptions(ps, "periodic")
        spec = ProblemSpec(1, 4.0, 4.0, 1.0)
        calls = []
        inner = csgs.solver._gradient

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(csgs.solver, "_gradient", counted)
        rep = minimize_ground_state(ps, spec, g, SolveOptions(grad_tol=1e-12))
        assert rep.converged and rep.failure is None
        assert rep.grad_norm <= 1e-12
        # every gradient is counted, those of floor trials the line search rejects included
        assert rep.gradient_evals == len(calls) > rep.iterations + 1

    def test_floor_steps_keep_the_trace_monotone(self, pair_reports):
        eps = np.finfo(float).eps
        for rep in pair_reports:
            trace = rep.energy_trace
            assert all(b <= a for a, b in zip(trace, trace[1:]))
            assert rep.energy <= min(trace) + 32.0 * eps * max(abs(rep.energy), 1.0)


class TestNeutrality:
    def test_translation_and_sign(self, setup_1d):
        g, ps, spec = setup_1d
        w = np.exp(-g.radius_sq / 2.0)
        base = FieldPair(0.9 * w, 1.1 * w, g)
        r0 = minimize_ground_state(ps, spec, g, QUICK, init_field=base)
        shifted = FieldPair(
            translate_lattice(base.u, (2,), g), translate_lattice(base.v, (2,), g), g
        )
        r1 = minimize_ground_state(ps, spec, g, QUICK, init_field=shifted)
        r2 = minimize_ground_state(ps, spec, g, QUICK, init_field=base.scaled(-1.0))
        assert abs(r0.energy - r1.energy) <= 1e-8
        assert abs(r0.energy - r2.energy) <= 1e-8


def _pinned_case(gspec, lam, spec):
    g = build_grid(gspec)
    return sample_potentials((CONST(1.0), CONST(1.0), CONST(lam)), lam, g), spec, g


class TestWorkspaceDescent:
    """The line search evaluates its trials on one workspace per solve."""

    @pytest.mark.parametrize(
        "gspec, lam, spec, opts, energy_hex, grad_hex, iterations",
        [
            (GridSpec(1, 4.0, 128), 0.3, ProblemSpec(1, 4.0, 4.0, 1.0),
             SolveOptions(init="random", seed=3),
             "0x1.2bf012a0eaeb9p+0", "0x1.097caa057ad45p-20", 772),
            (GridSpec(3, 6.0, 16), 0.9, ProblemSpec(3, 4.0, 6.0, 4.0), SolveOptions(),
             "0x1.8d9bd8dfd11dfp+1", "0x1.0a0b1c605bd03p-20", 206),
            (GridSpec(1, 4.0, 64, "dirichlet", "fd2"), 0.3, ProblemSpec(1, 4.0, 4.0, 1.0),
             SolveOptions(), "0x1.30b8d6d8002d5p+0", "0x1.ed3e6ea1811eep-21", 1111),
            (GridSpec(1, 4.0, 64), 0.3, ProblemSpec(1, 2.5, 3.5, 1.0), SolveOptions(),
             "0x1.e91ccdccba7e4p-2", "0x1.33eb3fc9e6cfap-21", 767),
            (GridSpec(2, 4.0, 16, "periodic", "fd2"), 0.3, ProblemSpec(2, 4.0, 5.0, 0.0),
             SolveOptions(), "0x1.cf493d2b4d126p+1", "0x1.dc441bcae4ca5p-21", 76),
        ],
        ids=["random-1d", "critical-3d", "dirichlet-1d", "fractional-1d", "mu-zero-2d"],
    )
    def test_pinned_solves(self, gspec, lam, spec, opts, energy_hex, grad_hex, iterations):
        """Solves pinned to the last bit: any reordered kernel arithmetic moves them."""
        ps, spec, g = _pinned_case(gspec, lam, spec)
        rep = minimize_ground_state(ps, spec, g, opts)
        assert (rep.energy.hex(), rep.grad_norm.hex(), rep.iterations) == (
            energy_hex, grad_hex, iterations
        )

    def test_trials_count_every_line_search_point(self, monkeypatch):
        import csgs.solver

        ps, spec, g = _pinned_case(GridSpec(1, 4.0, 128), 0.3, ProblemSpec(1, 4.0, 4.0, 1.0))
        roots, errors = [], []
        inner = csgs.solver.fibering_scale_from_invariants

        def counted(inv, spec):
            roots.append(1)
            try:
                return inner(inv, spec)
            except Exception as exc:
                errors.append(exc)
                raise

        monkeypatch.setattr(csgs.solver, "fibering_scale_from_invariants", counted)
        rep = minimize_ground_state(ps, spec, g, SolveOptions(init="random", seed=3))
        assert rep.converged and not errors
        # one root for the start, then one per trial point
        assert rep.trials == len(roots) - 1 > rep.iterations

    def test_line_search_backtracks_on_a_trial_it_cannot_project(self, monkeypatch):
        import csgs.solver
        from csgs.errors import NonpositiveQuadraticFormError

        ps, spec, g = _pinned_case(GridSpec(1, 4.0, 128), 0.3, ProblemSpec(1, 4.0, 4.0, 1.0))
        opts = SolveOptions(init="random", seed=3)
        plain = minimize_ground_state(ps, spec, g, opts)
        roots = []
        inner = csgs.solver.fibering_scale_from_invariants

        def first_trial_fails(inv, spec):
            roots.append(1)
            if len(roots) == 2:  # the start's root, then the first trial's
                raise NonpositiveQuadraticFormError("B = 0")
            return inner(inv, spec)

        monkeypatch.setattr(csgs.solver, "fibering_scale_from_invariants", first_trial_fails)
        rep = minimize_ground_state(ps, spec, g, opts)
        assert rep.converged and rep.failure is None
        assert abs(rep.energy - plain.energy) <= 1e-9 * abs(plain.energy)
        assert rep.trials == len(roots) - 1  # the rejected trial is counted

    def test_projections_take_few_root_iterations(self, monkeypatch):
        import csgs.solver

        ps, spec, g = _pinned_case(GridSpec(1, 4.0, 128), 0.3, ProblemSpec(1, 4.0, 4.0, 1.0))
        iterations = []
        inner = csgs.solver.fibering_scale_from_invariants

        def counted(inv, spec):
            diag = inner(inv, spec)
            iterations.append(diag.iterations)
            return diag

        monkeypatch.setattr(csgs.solver, "fibering_scale_from_invariants", counted)
        assert minimize_ground_state(ps, spec, g, SolveOptions(init="random", seed=3)).converged
        # p = q makes psi affine in log t: one Newton step, one evaluation to confirm it
        assert sum(iterations) / len(iterations) <= 3.0

    def test_one_guard_silences_the_descent(self, monkeypatch):
        import warnings

        import csgs.solver
        from csgs.solver import initial_pair

        ps, spec, g = _pinned_case(GridSpec(3, 2.0, 8), 0.9, ProblemSpec(3, 4.0, 6.0, 4.0))
        start = initial_pair(g, SolveOptions())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # ||v||_6^6 overflows: no fibering scale, so the report is on the start as given
            rep = minimize_ground_state(ps, spec, g, init_field=start.scaled(1e55))
            assert rep.failure.startswith("initial projection failed: the invariants")
            assert "not all finite" in rep.failure
            assert not rep.converged and rep.iterations == 0 and rep.energy == -np.inf
            assert minimize_ground_state(ps, spec, g, init_field=start.scaled(1e40)).converged

        # the trial kernels carry no guard of their own: the solve's covers them
        seen = []
        inner = csgs.solver._invariants

        def recorded(*args):
            seen.append(np.geterr())
            return inner(*args)

        monkeypatch.setattr(csgs.solver, "_invariants", recorded)
        minimize_ground_state(ps, spec, g, SolveOptions(max_iters=5))
        assert seen and all(e["over"] == e["invalid"] == "ignore" for e in seen)
