import numpy as np
import pytest
from scipy.optimize import brentq

from csgs import (
    FieldPair,
    GridSpec,
    PotentialDef,
    ProblemSpec,
    build_grid,
    fibering_scale,
    nehari_project,
    nehari_value,
    pair_invariants,
    sample_potentials,
)
from csgs.errors import (
    DegenerateNonlinearityError,
    NonFiniteEnergyError,
    NonpositiveQuadraticFormError,
    ZeroFieldError,
)
from csgs.functional import PairInvariants
from csgs.nehari import fibering_scale_from_invariants

from conftest import random_pair

CONST = PotentialDef.constant


@pytest.fixture(scope="module")
def setup():
    g = build_grid(GridSpec(1, 1.0, 64))
    ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.0)), 0.5, g)
    spec = ProblemSpec(1, 4.0, 4.0, 1.0)
    return g, ps, spec


class TestFiberingScale:
    def test_quartic_closed_form_constants(self, setup):
        g, ps, spec = setup
        ones = FieldPair(np.ones(g.shape), np.ones(g.shape), g)
        # B = 4, mu ||u||_4^4 + ||v||_4^4 = 4: t = sqrt(B / 4) = 1
        diag = fibering_scale(ones, ps, spec, g)
        assert diag.t_mu == pytest.approx(1.0, abs=1e-12)
        assert diag.bracket[0] < diag.t_mu < diag.bracket[1]

    def test_quartic_closed_form_random(self, setup):
        g, ps, spec = setup
        for seed in range(25):
            fp = random_pair(g, seed)
            inv = pair_invariants(fp, ps, spec, g)
            expected = np.sqrt(inv.quad / (inv.pnorm_mu + inv.qnorm))
            diag = fibering_scale_from_invariants(inv, spec)
            assert abs(diag.t_mu - expected) <= 1e-12 * max(1.0, expected)

    def test_mixed_exponents_golden_root(self):
        spec = ProblemSpec(1, 3.0, 4.0, 1.0)
        inv = PairInvariants(quad=1.0, coupling=0.0, pnorm_mu=1.0, qnorm=1.0)
        diag = fibering_scale_from_invariants(inv, spec)
        assert diag.t_mu == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, abs=1e-10)

    @pytest.mark.parametrize("c", [1e-16, 1e-12, 1.0, 1e12])
    def test_common_factor_leaves_root(self, c):
        # phi(t) = t^2 0.7c + t^4 0.3c - 2c has the same root for every c > 0
        spec = ProblemSpec(3, 4.0, 6.0, 1.0)

        def root(c):
            inv = PairInvariants(quad=2.0 * c, coupling=0.0, pnorm_mu=0.7 * c, qnorm=0.3 * c)
            return fibering_scale_from_invariants(inv, spec).t_mu
        assert abs(root(c) - root(1.0)) <= 1e-12 * root(1.0)

    @pytest.mark.parametrize(
        "pq, quad, t_hex",
        [
            ((4.0, 4.0), 2.0, "0x1.6a09e667f3bcdp+0"),
            ((4.0, 4.0), 0.5, "0x1.6a09e667f3bcdp-1"),
            ((4.0, 6.0), 2.0, "0x1.4a7e9cb8a3492p+0"),
            ((4.0, 6.0), 0.5, "0x1.83b289bb428e8p-1"),
            ((2.5, 6.0), 2.0, "0x1.67c47a0518738p+0"),
            ((2.5, 6.0), 0.5, "0x1.ea135ad747835p-2"),
        ],
    )
    def test_pinned_roots(self, pq, quad, t_hex):
        # a + b = 1 against B = 2 (phi(1) < 0) or B = 0.5 (phi(1) > 0): the
        # bracket expands up or down; every bit of the root is pinned
        spec = ProblemSpec(3, *pq, 1.0)
        inv = PairInvariants(quad=quad, coupling=0.0, pnorm_mu=0.7, qnorm=0.3)
        assert fibering_scale_from_invariants(inv, spec).t_mu.hex() == t_hex

    @pytest.mark.parametrize("quad, qnorm", [(1e300, 1e-10), (1.0, 1e-310)])
    def test_root_beyond_double_range(self, quad, qnorm):
        # the root is about 1e77.5 and its fourth power overflows
        spec = ProblemSpec(3, 4.0, 6.0, 1.0)
        inv = PairInvariants(quad=quad, coupling=0.0, pnorm_mu=0.0, qnorm=qnorm)
        with pytest.raises(NonFiniteEnergyError, match="double range"):
            fibering_scale_from_invariants(inv, spec)

    @pytest.mark.parametrize(
        "quad, pnorm_mu, qnorm",
        [(np.nan, 0.7, 0.3), (np.inf, 0.7, 0.3), (2.0, np.nan, 0.3), (2.0, 0.7, np.inf)],
    )
    def test_non_finite_invariants(self, quad, pnorm_mu, qnorm):
        inv = PairInvariants(quad=quad, coupling=0.0, pnorm_mu=pnorm_mu, qnorm=qnorm)
        with pytest.raises(NonFiniteEnergyError, match="not all finite"):
            fibering_scale_from_invariants(inv, ProblemSpec(3, 4.0, 6.0, 1.0))

    def test_nan_node_has_no_scale(self, setup):
        # one NaN node once came back as the plausible scale t = 4 with a NaN energy
        g, ps, spec = setup
        bump = np.exp(-g.radius_sq / (2.0 * 0.25**2))
        fp = FieldPair(0.9 * bump, 1.1 * bump, g)
        fp.u[3] = np.nan
        with pytest.raises(NonFiniteEnergyError):
            fibering_scale(fp, ps, spec, g)
        with pytest.raises(NonFiniteEnergyError):
            nehari_project(fp, ps, spec, g)

    def test_against_scalar_root_oracle(self, setup):
        g, ps, _ = setup
        spec = ProblemSpec(1, 2.7, 5.3, 0.8)
        for seed in range(10):
            fp = random_pair(g, seed)
            inv = pair_invariants(fp, ps, spec, g)
            phi = lambda t: (
                t ** (spec.p - 2) * inv.pnorm_mu + t ** (spec.q - 2) * inv.qnorm - inv.quad
            )
            oracle = brentq(phi, 1e-8, 1e8, xtol=1e-14, rtol=1e-15)
            diag = fibering_scale_from_invariants(inv, spec)
            assert diag.t_mu == pytest.approx(oracle, rel=1e-10)

    def test_zero_field_rejected(self, setup):
        g, ps, spec = setup
        z = FieldPair(np.zeros(g.shape), np.zeros(g.shape), g)
        with pytest.raises(ZeroFieldError):
            fibering_scale(z, ps, spec, g)

    def test_degenerate_nonlinearity(self, setup):
        g, ps, _ = setup
        spec0 = ProblemSpec(1, 4.0, 4.0, 0.0)
        u_only = FieldPair(np.ones(g.shape), np.zeros(g.shape), g)
        with pytest.raises(DegenerateNonlinearityError):
            fibering_scale(u_only, ps, spec0, g)

    def test_mu_zero_with_v_succeeds(self, setup):
        g, ps, _ = setup
        spec0 = ProblemSpec(1, 4.0, 4.0, 0.0)
        fp = random_pair(g, 3)
        proj, diag = nehari_project(fp, ps, spec0, g)
        assert diag.t_mu > 0
        b_proj = pair_invariants(proj, ps, spec0, g).quad
        assert abs(nehari_value(proj, ps, spec0, g)) <= 1e-10 * max(1.0, b_proj)

    def test_nonpositive_quadratic_form(self, setup):
        g, _, spec = setup
        # deliberately unvalidated: coupling overwhelms the norms
        bad = sample_potentials((CONST(1.0), CONST(1.0), CONST(3.0)), 0.9, g)
        ones = FieldPair(np.ones(g.shape), np.ones(g.shape), g)
        with pytest.raises(NonpositiveQuadraticFormError):
            fibering_scale(ones, bad, spec, g)

    def test_uniqueness_single_sign_change(self, setup):
        g, ps, _ = setup
        spec = ProblemSpec(1, 3.0, 5.0, 1.0)
        ts = np.logspace(-3, 3, 1024)
        for seed in range(100):
            inv = pair_invariants(random_pair(g, seed), ps, spec, g)
            phi = ts ** (spec.p - 2) * inv.pnorm_mu + ts ** (spec.q - 2) * inv.qnorm - inv.quad
            signs = np.sign(phi)
            changes = np.count_nonzero(np.diff(signs[signs != 0]))
            assert changes == 1


class TestProjection:
    def test_on_manifold_fixed_point(self, setup):
        g, ps, spec = setup
        proj, _ = nehari_project(random_pair(g, 11), ps, spec, g)
        _, diag = nehari_project(proj, ps, spec, g)
        assert diag.t_mu == pytest.approx(1.0, abs=1e-10)

    def test_quartic_half_scale(self, setup):
        g, ps, spec = setup
        proj, _ = nehari_project(random_pair(g, 12), ps, spec, g)
        doubled = proj.scaled(2.0)
        _, diag = nehari_project(doubled, ps, spec, g)
        assert diag.t_mu == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("s", [0.1, 3.0, 10.0])
    def test_scale_invariance(self, setup, s):
        g, ps, _ = setup
        spec = ProblemSpec(1, 3.0, 4.5, 1.0)
        fp = random_pair(g, 13)
        base, _ = nehari_project(fp, ps, spec, g)
        scaled, _ = nehari_project(fp.scaled(s), ps, spec, g)
        denom = max(1.0, float(np.max(np.abs(base.u))), float(np.max(np.abs(base.v))))
        assert np.max(np.abs(scaled.u - base.u)) <= 1e-9 * denom
        assert np.max(np.abs(scaled.v - base.v)) <= 1e-9 * denom

    def test_projection_residual(self, setup):
        g, ps, _ = setup
        spec = ProblemSpec(1, 3.0, 4.0, 2.0)
        for seed in range(20):
            fp = random_pair(g, seed)
            proj, diag = nehari_project(fp, ps, spec, g)
            inv_p = pair_invariants(proj, ps, spec, g)
            assert abs(nehari_value(proj, ps, spec, g)) <= 1e-10 * max(1.0, inv_p.quad)

    def test_maximality_over_ray(self, setup):
        g, ps, _ = setup
        spec = ProblemSpec(1, 3.0, 4.0, 1.0)
        for seed in range(10):
            fp = random_pair(g, seed)
            inv = pair_invariants(fp, ps, spec, g)
            diag = fibering_scale_from_invariants(inv, spec)
            best = inv.energy_at(diag.t_mu, spec)
            for t in np.logspace(np.log10(diag.t_mu / 100), np.log10(diag.t_mu * 100), 64):
                assert best >= inv.energy_at(t, spec) - 1e-12 * max(1.0, abs(best))
