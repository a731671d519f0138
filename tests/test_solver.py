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

    def test_stalled_line_search_reports_stagnated(self):
        g = build_grid(GridSpec(1, 4.0, 128, "periodic", "fd2"))
        ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.3)), 0.3, g)
        validate_assumptions(ps, "periodic")
        spec = ProblemSpec(1, 4.0, 4.0, 1.0)
        rep = minimize_ground_state(ps, spec, g, SolveOptions(grad_tol=1e-13))
        assert not rep.converged
        assert rep.iterations < SolveOptions().max_iters
        assert rep.failure == "stagnated"

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
        calls = []

        def counted(f, grid):
            calls.append(1)
            return apply_laplacian(f, grid)

        monkeypatch.setattr(csgs.solver, "apply_laplacian", counted)
        monkeypatch.setattr(csgs.functional, "apply_laplacian", counted)
        rep = minimize_ground_state(ps, spec, g)
        assert rep.converged
        # two for the start, then the new gradient's two per iteration
        assert len(calls) == 2 + 2 * rep.iterations


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
            ("fd2", 8.0, 32, 0.01, "0x1.18deac73d41ddp+2"),
            ("fd2", 8.0, 32, 0.005, "0x1.1b2e9e40bb1c6p+2"),
            ("fd2", 8.0, 32, 0.02, "0x1.1442c1cab2571p+2"),
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
        inner = csgs.solver.minimize_ground_state
        starts = []

        def failing_at_mu_2(ps, spec, grid, opts=None, init_field=None):
            starts.append(init_field)
            if spec.mu == 2.0:
                raise NonFiniteEnergyError("trial energy is not finite")
            return inner(ps, spec, grid, opts, init_field=init_field)

        monkeypatch.setattr(csgs.solver, "minimize_ground_state", failing_at_mu_2)
        sw = sweep_mu(ps, spec, g, [1.0, 2.0], QUICK)
        assert sw.converged == [True, False]
        # the warm solve at mu = 2 starts from the mu = 1 field and is listed first
        warm = sw.reports[0].field
        assert starts[1] is warm
        rep = sw.reports[1]
        assert rep.failure == "trial energy is not finite"
        assert rep.field is warm

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
             "0x1.2bf012a0eaf51p+0", "0x1.07df643ff2e8ep-20", 673),
            (GridSpec(3, 6.0, 16), 0.9, ProblemSpec(3, 4.0, 6.0, 4.0), SolveOptions(),
             "0x1.8d9bd8dfcffe1p+1", "0x1.9063ea4f47a00p-21", 197),
            (GridSpec(1, 4.0, 64, "dirichlet", "fd2"), 0.3, ProblemSpec(1, 4.0, 4.0, 1.0),
             SolveOptions(), "0x1.30b8d6d802f33p+0", "0x1.09d04a7863d6cp-20", 1232),
            (GridSpec(1, 4.0, 64), 0.3, ProblemSpec(1, 2.5, 3.5, 1.0), SolveOptions(),
             "0x1.e91ccdccc0b5ep-2", "0x1.082fb3c621df6p-20", 713),
            (GridSpec(2, 4.0, 16, "periodic", "fd2"), 0.3, ProblemSpec(2, 4.0, 5.0, 0.0),
             SolveOptions(), "0x1.cf493d2b4d13fp+1", "0x1.dc4425690e418p-21", 76),
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

    def test_one_guard_silences_the_descent(self, monkeypatch):
        import warnings

        import csgs.solver
        from csgs.errors import NonFiniteEnergyError
        from csgs.solver import initial_pair

        ps, spec, g = _pinned_case(GridSpec(3, 2.0, 8), 0.9, ProblemSpec(3, 4.0, 6.0, 4.0))
        start = initial_pair(g, SolveOptions())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteEnergyError):
                minimize_ground_state(ps, spec, g, init_field=start.scaled(1e55))
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
