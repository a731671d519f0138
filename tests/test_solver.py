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
from csgs.solver import hash_grid, hash_potentials, hash_spec

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

    def test_degenerate_init_reports_failure(self, setup_1d):
        g, ps, _ = setup_1d
        spec0 = ProblemSpec(1, 4.0, 4.0, 0.0)
        u_only = FieldPair(np.exp(-g.radius_sq), np.zeros(g.shape), g)
        rep = minimize_ground_state(ps, spec0, g, QUICK, init_field=u_only)
        assert not rep.converged
        assert rep.failure is not None and "projection" in rep.failure
        assert rep.field.lap is None

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
            # Dirichlet solves stop short of grad_tol; the energy must still agree
            (GridSpec(1, 4.0, 64, "dirichlet", "fd2"), ProblemSpec(1, 4.0, 4.0, 1.0),
             SolveOptions(max_iters=300)),
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
        assert rep.field.lap is None
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
        rep = minimize_ground_state(ps, spec, g, SolveOptions(recenter_every=0))
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

    def test_grid_mismatch_rejected(self, pair_reports):
        r_per, _ = pair_reports
        g2 = build_grid(GridSpec(1, 4.0, 32))
        ps2 = sample_potentials((CONST(2.0), CONST(2.0), CONST(0.4)), 0.5, g2)
        validate_assumptions(ps2, "periodic")
        other = minimize_ground_state(ps2, ProblemSpec(1, 4.0, 4.0, 1.0), g2, QUICK)
        with pytest.raises(GridMismatchError):
            compare_energies(r_per, other)


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


class TestHashes:
    def test_hash_stability_and_sensitivity(self, setup_1d):
        g, ps, spec = setup_1d
        assert hash_grid(g) == hash_grid(g)
        assert hash_spec(spec) != hash_spec(spec.with_mu(2.0))
        other = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.2)), 0.3, g)
        assert hash_potentials(ps) != hash_potentials(other)
