import math
from dataclasses import replace

import numpy as np
import pytest

from csgs import (
    FieldPair,
    GridSpec,
    PotentialDef,
    ProblemSpec,
    SolveOptions,
    build_grid,
    compare_energies,
    coupling_sign_value,
    energy,
    energy_gradient,
    minimize_ground_state,
    nehari_value,
    nonexistence_certificate,
    pair_invariants,
    pohozaev_residual,
    quadratic_form,
    sample_potentials,
    validate_assumptions,
)
from csgs.errors import GridMismatchError, NonFiniteEnergyError
from csgs.functional import odd_power, pair_inner, pair_norm_e_sq
from csgs.grid import apply_laplacian
from csgs.nehari import nehari_project

from conftest import random_pair

CONST = PotentialDef.constant


@pytest.fixture(scope="module")
def unit_setup():
    g = build_grid(GridSpec(1, 1.0, 64))
    ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.5)), 0.5, g)
    validate_assumptions(ps, "periodic")
    spec = ProblemSpec(1, 4.0, 4.0, 1.0)
    ones = FieldPair(np.ones(g.shape), np.ones(g.shape), g)
    return g, ps, spec, ones


class TestProblemSpec:
    def test_p_must_exceed_two(self):
        with pytest.raises(ValueError):
            ProblemSpec(1, 2.0, 4.0, 1.0)

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            ProblemSpec(1, 4.0, 3.0, 1.0)

    @pytest.mark.parametrize("q", [6.5, 6.0 + 1e-13], ids=["6.5", "6+1e-13"])
    def test_critical_cap_3d(self, q):
        with pytest.raises(ValueError, match="critical exponent"):
            ProblemSpec(3, 4.0, q, 1.0)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            ProblemSpec(1, 3.0, 4.0, -0.5)

    @pytest.mark.parametrize(
        "dim,p,q,regime",
        [
            (1, 3.0, 8.0, "subcritical"),
            (3, 4.0, 5.0, "subcritical"),
            (3, 4.0, 6.0, "critical-q"),
            (3, 6.0, 6.0, "critical-both"),
        ],
    )
    def test_regimes(self, dim, p, q, regime):
        assert ProblemSpec(dim, p, q, 1.0).regime == regime


NON_FINITE_FIELDS = {
    "GridSpec.half_width": lambda x: GridSpec(1, x, 8),
    "ProblemSpec.p": lambda x: ProblemSpec(1, x, 8.0, 1.0),
    "ProblemSpec.q": lambda x: ProblemSpec(1, 4.0, x, 1.0),
    "ProblemSpec.mu": lambda x: ProblemSpec(1, 4.0, 4.0, x),
    "SolveOptions.grad_tol": lambda x: SolveOptions(grad_tol=x),
}


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("name", sorted(NON_FINITE_FIELDS))
def test_library_types_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=rf"^{name.split('.')[1]} must be"):
        NON_FINITE_FIELDS[name](value)


class TestQuadraticForm:
    def test_constants_equality_case(self, unit_setup):
        g, ps, _, ones = unit_setup
        b = quadratic_form(ones, ps, g)
        assert b == pytest.approx(2.0, abs=1e-13)
        # coercivity with delta = 1/2 is tight here: (1 - delta) ||.||^2 = 2
        assert pair_norm_e_sq(ones, ps, g) == pytest.approx(4.0, abs=1e-13)

    def test_decoupled_equals_norm(self, grid_1d):
        ps = sample_potentials((CONST(1.0), CONST(2.0), CONST(0.0)), 0.5, grid_1d)
        fp = random_pair(grid_1d, 4)
        assert quadratic_form(fp, ps, grid_1d) == pytest.approx(
            pair_norm_e_sq(fp, ps, grid_1d), rel=1e-13
        )

    def test_against_nodewise_summation_oracle(self):
        g = build_grid(GridSpec(1, 1.0, 16))
        ps = sample_potentials((CONST(1.2), CONST(0.7), CONST(0.4)), 0.6, g)
        fp = random_pair(g, 5)
        b = quadratic_form(fp, ps, g)
        lap_u = apply_laplacian(fp.u, g)
        lap_v = apply_laplacian(fp.v, g)
        acc = math.fsum(
            g.spacing ** g.spec.dim
            * (
                fp.u.ravel()[k] * -lap_u.ravel()[k]
                + fp.v.ravel()[k] * -lap_v.ravel()[k]
                + ps.v1.ravel()[k] * fp.u.ravel()[k] ** 2
                + ps.v2.ravel()[k] * fp.v.ravel()[k] ** 2
                - 2.0 * ps.lam.ravel()[k] * fp.u.ravel()[k] * fp.v.ravel()[k]
            )
            for k in range(g.num_nodes)
        )
        assert b == pytest.approx(acc, rel=1e-12)

    def test_discrete_coercivity(self, grid_1d):
        sets = [
            sample_potentials((CONST(1.0), CONST(1.0), CONST(0.9)), 0.9, grid_1d),
            sample_potentials((CONST(1.0), CONST(4.0), CONST(-1.0)), 0.5, grid_1d),
            sample_potentials(
                (PotentialDef.cosine_lattice(1.5, 0.5), CONST(1.0), CONST(0.0)), 0.5, grid_1d
            ),
        ]
        for ps in sets:
            assert validate_assumptions(ps, "periodic").overall
            for seed in range(20):
                fp = random_pair(grid_1d, seed)
                b = quadratic_form(fp, ps, grid_1d)
                norm_sq = pair_norm_e_sq(fp, ps, grid_1d)
                assert b >= (1.0 - ps.delta) * norm_sq - 1e-12 * max(1.0, norm_sq)


class TestEnergy:
    def test_constants_cancel(self, unit_setup):
        g, ps, spec, ones = unit_setup
        eb = energy(ones, ps, spec, g)
        assert eb.quad == pytest.approx(2.0, abs=1e-13)
        assert eb.coupling == pytest.approx(2.0, abs=1e-13)
        assert eb.pterm == pytest.approx(0.5, abs=1e-13)
        assert eb.qterm == pytest.approx(0.5, abs=1e-13)
        assert eb.total == pytest.approx(0.0, abs=1e-13)

    def test_zero_field(self, unit_setup):
        g, ps, spec, _ = unit_setup
        eb = energy(FieldPair(np.zeros(g.shape), np.zeros(g.shape), g), ps, spec, g)
        assert eb.total == 0.0 and eb.quad == 0.0 and eb.pterm == 0.0

    def test_mu_zero_drops_pterm(self, unit_setup):
        g, ps, _, _ = unit_setup
        spec0 = ProblemSpec(1, 4.0, 4.0, 0.0)
        fp = random_pair(g, 6)
        eb = energy(fp, ps, spec0, g)
        assert eb.pterm == 0.0
        assert eb.total == pytest.approx(0.5 * eb.quad - eb.qterm, rel=1e-13)

    def test_overflow_reported(self, unit_setup):
        g, ps, spec, _ = unit_setup
        huge = FieldPair(np.full(g.shape, 1e200), np.full(g.shape, 1e200), g)
        with pytest.raises(NonFiniteEnergyError):
            energy(huge, ps, spec, g)

    def test_scaling_formula(self, unit_setup):
        g, ps, spec, _ = unit_setup
        fp = random_pair(g, 7)
        inv = pair_invariants(fp, ps, spec, g)
        for t in (0.1, 0.7, 1.0, 2.3, 9.0):
            direct = energy(fp.scaled(t), ps, spec, g).total
            assert direct == pytest.approx(inv.energy_at(t, spec), rel=1e-12)


class TestGradient:
    def test_zero_at_origin(self, unit_setup):
        g, ps, spec, _ = unit_setup
        z = FieldPair(np.zeros(g.shape), np.zeros(g.shape), g)
        grad = energy_gradient(z, ps, spec, g)
        assert np.all(grad.u == 0.0) and np.all(grad.v == 0.0)

    def test_constants_nodewise_value(self, unit_setup):
        g, ps, spec, ones = unit_setup
        grad = energy_gradient(ones, ps, spec, g)
        assert np.allclose(grad.u, -0.5, atol=1e-13)
        assert np.allclose(grad.v, -0.5, atol=1e-13)

    @pytest.mark.parametrize("p,q", [(4.0, 4.0), (3.0, 4.0), (2.5, 5.0)])
    def test_central_difference_check(self, unit_setup, p, q):
        g, ps, _, _ = unit_setup
        spec = ProblemSpec(1, p, q, 1.0)
        fp = random_pair(g, 8, smooth=True)
        eps = 1e-5
        for seed in range(8):
            d = random_pair(g, 100 + seed, smooth=True)
            grad = energy_gradient(fp, ps, spec, g)
            pairing = pair_inner(grad, d, g)
            plus = energy(FieldPair(fp.u + eps * d.u, fp.v + eps * d.v, g), ps, spec, g).total
            minus = energy(FieldPair(fp.u - eps * d.u, fp.v - eps * d.v, g), ps, spec, g).total
            fd = (plus - minus) / (2.0 * eps)
            assert abs(fd - pairing) <= 1e-6 * max(1.0, abs(pairing))

    def test_dirichlet_pairing_matches_central_differences_at_the_walls(self):
        g = build_grid(GridSpec(1, 4.0, 64, "dirichlet", "fd2"))
        ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.3)), 0.3, g)
        spec = ProblemSpec(1, 4.0, 4.0, 1.0)
        fp = random_pair(g, 0)
        grad = energy_gradient(fp, ps, spec, g)
        eps = 1e-6
        # every node, the two next to the walls included
        for node in range(g.num_nodes):
            e = np.zeros(g.shape)
            e[node] = 1.0
            d = FieldPair(e, np.zeros(g.shape), g)
            plus = energy(FieldPair(fp.u + eps * e, fp.v, g), ps, spec, g).total
            minus = energy(FieldPair(fp.u - eps * e, fp.v, g), ps, spec, g).total
            fd = (plus - minus) / (2.0 * eps)
            pairing = pair_inner(grad, d, g)
            assert abs(fd - pairing) <= 1e-6 * max(1.0, abs(pairing))


class TestOddPower:
    """Whole exponents are raised by multiplication, others by pow."""

    @pytest.mark.parametrize("p", [3.0, 4.0, 5.0, 6.0])
    def test_whole_exponents_match_pow(self, grid_1d, p):
        f = random_pair(grid_1d, 14).u
        f[0] = 0.0
        generic = np.sign(f) * np.abs(f) ** (p - 1.0)
        fast = odd_power(f, p)
        assert fast[0] == 0.0
        assert np.all(np.abs(fast - generic) <= 1e-15 * np.abs(generic))

    @pytest.mark.parametrize("p", [2.5, 4.5])
    def test_fractional_exponents_use_pow(self, grid_1d, p):
        f = random_pair(grid_1d, 15).u
        assert np.array_equal(odd_power(f, p), np.sign(f) * np.abs(f) ** (p - 1.0))


class TestNehariValue:
    def test_zero_field(self, unit_setup):
        g, ps, spec, _ = unit_setup
        z = FieldPair(np.zeros(g.shape), np.zeros(g.shape), g)
        assert nehari_value(z, ps, spec, g) == 0.0

    def test_constants_value(self, unit_setup):
        g, ps, spec, ones = unit_setup
        assert nehari_value(ones, ps, spec, g) == pytest.approx(-2.0, abs=1e-13)

    def test_manifold_identity_after_projection(self, unit_setup):
        g, ps, _, _ = unit_setup
        spec = ProblemSpec(1, 3.0, 4.0, 1.0)
        for seed in range(10):
            proj, _ = nehari_project(random_pair(g, seed), ps, spec, g)
            inv = pair_invariants(proj, ps, spec, g)
            total = energy(proj, ps, spec, g).total
            identity = (0.5 - 1.0 / spec.p) * inv.quad + (1.0 / spec.p - 1.0 / spec.q) * inv.qnorm
            assert total == pytest.approx(identity, rel=1e-10)
            # energy level bounded below by the coercive norm
            assert total >= (0.5 - 1.0 / spec.p) * (1.0 - ps.delta) * inv.norm_e_sq - 1e-9


def _wrong_grid_case(dim):
    """A positive pair on a spectral grid, and potentials on an fd2 grid of another width
    with the same node count, so that every array has the shape the other grid expects."""
    from types import SimpleNamespace

    from csgs import SolveReport

    half_width, n = (4.0, 64) if dim == 1 else (2.0, 8)
    g_pair = build_grid(GridSpec(dim, half_width, n))
    g = build_grid(GridSpec(dim, half_width + 2.0, n, "periodic", "fd2"))
    bump = np.exp(-g_pair.radius_sq)
    fp = FieldPair(bump, 0.5 * bump + 0.1, g_pair)
    defs = (CONST(1.0), CONST(1.0), CONST(0.3))
    spec = ProblemSpec(dim, 6.0, 6.0, 1.0) if dim == 3 else ProblemSpec(dim, 4.0, 4.0, 1.0)
    report = SolveReport(fp, 1.0, 0.0, 0, [1.0], [0.0], True, spec, 1.0)
    return SimpleNamespace(fp=fp, ps=sample_potentials(defs, 0.3, g), spec=spec, g=g,
                           pair_set=sample_potentials(defs, 0.3, g_pair), report=report)


class TestOneGridRule:
    """Every entry point refuses a pair or a set sampled on a grid built from another spec."""

    @pytest.mark.parametrize(
        "dim, call",
        [
            (1, lambda c: pair_invariants(c.fp, c.ps, c.spec, c.g)),
            (1, lambda c: pair_invariants(c.fp, c.pair_set, c.spec, c.g)),
            (1, lambda c: energy_gradient(c.fp, c.ps, c.spec, c.g)),
            (1, lambda c: minimize_ground_state(c.ps, c.spec, c.g, SolveOptions(max_iters=3),
                                                init_field=c.fp)),
            (1, lambda c: validate_assumptions(c.ps, "asymptotic", reference=c.pair_set)),
            (1, lambda c: compare_energies(
                c.report, replace(c.report, field=FieldPair(c.fp.u, c.fp.v, c.g)))),
            (3, lambda c: coupling_sign_value(c.fp, c.ps, c.g)),
            (3, lambda c: pohozaev_residual(c.fp, c.ps, c.spec, c.g)),
            (3, lambda c: nonexistence_certificate(c.fp, c.ps, c.spec, c.g)),
        ],
        ids=["pair_invariants", "potentials", "energy_gradient", "minimize_ground_state",
             "validate_assumptions", "compare_energies", "coupling_sign_value",
             "pohozaev_residual", "nonexistence_certificate"],
    )
    def test_other_grid_rejected(self, dim, call):
        with pytest.raises(GridMismatchError):
            call(_wrong_grid_case(dim))

    def test_grid_from_an_equal_spec_accepted(self, unit_setup):
        g, ps, spec, ones = unit_setup
        twin = build_grid(g.spec)
        assert twin is not g
        moved = FieldPair(ones.u, ones.v, twin)
        assert pair_invariants(moved, ps, spec, g) == pair_invariants(ones, ps, spec, g)
