"""Energy of the coupled system, its gradient, and the Nehari constraint.

The energy of a pair (u, v) is

    I(u, v) = (1/2) B(u, v) - (mu/p) ||u||_p^p - (1/q) ||v||_q^q,

where B is the coupled quadratic form: the sum of the two weighted H^1
norms minus twice the coupling integral.  Its derivative paired with test
fields, the constraint J(u, v) = <I'(u, v), (u, v)>, and the scaled-pair
energy t -> I(tu, tv) all reduce to a handful of quadrature scalars that
this module computes once and reuses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEnergyError
from .grid import FieldPair, Grid, _whole_power, apply_laplacian, integrate, lp_integral
from .potentials import PotentialSet


@dataclass(frozen=True)
class ProblemSpec:
    """Exponents and coupling parameter of the system.

    The regime is derived: in three dimensions q = 6 is the critical
    Sobolev exponent (critical-q when p < q = 6, critical-both when
    p = q = 6); lower dimensions are always labeled subcritical.
    """

    dim: int
    p: float
    q: float
    mu: float

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not self.p > 2:
            raise ValueError(f"p must exceed 2, got {self.p}")
        if self.q < self.p:
            raise ValueError(f"need p <= q, got p={self.p}, q={self.q}")
        if self.dim == 3 and self.q > 6.0 + 1e-12:
            raise ValueError(f"q must not exceed the critical exponent 6, got {self.q}")
        if self.mu < 0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")

    @property
    def regime(self) -> str:
        if self.dim == 3 and self.q == 6.0:
            return "critical-both" if self.p == 6.0 else "critical-q"
        return "subcritical"

    def with_mu(self, mu: float) -> "ProblemSpec":
        return ProblemSpec(self.dim, self.p, self.q, mu)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Itemized energy: total = quad/2 - pterm - qterm."""

    quad: float       # B(u, v), coupling already subtracted
    coupling: float   # 2 * integral of lambda u v
    pterm: float      # (mu/p) ||u||_p^p
    qterm: float      # (1/q) ||v||_q^q
    total: float


@dataclass(frozen=True)
class PairInvariants:
    """The quadrature scalars that determine everything along a ray.

    For the scaled pair (t u, t v):
        energy  E(t) = t^2 B / 2 - t^p pnorm_mu / p - t^q qnorm / q
        constraint J(t) = t^2 B - t^p pnorm_mu - t^q qnorm
    """

    quad: float       # B(u, v)
    coupling: float   # 2 * integral lambda u v
    pnorm_mu: float   # mu ||u||_p^p
    qnorm: float      # ||v||_q^q

    @property
    def norm_e_sq(self) -> float:
        """||(u,v)||_E^2 = B + coupling."""
        return self.quad + self.coupling

    def energy_at(self, t: float, spec: ProblemSpec) -> float:
        return (
            0.5 * t * t * self.quad
            - t**spec.p / spec.p * self.pnorm_mu
            - t**spec.q / spec.q * self.qnorm
        )

    def constraint_at(self, t: float, spec: ProblemSpec) -> float:
        return t * t * self.quad - t**spec.p * self.pnorm_mu - t**spec.q * self.qnorm


def _check(fp: FieldPair, ps: PotentialSet, grid: Grid) -> None:
    grid.check_conforms(fp.u)
    grid.check_conforms(fp.v)
    ps.check_grid(grid)


def _laplacian(fp: FieldPair, i: int, grid: Grid) -> np.ndarray:
    """Lap of fp.u (i = 0) or fp.v (i = 1): the carried one, else transformed now."""
    return fp.lap[i] if fp.lap is not None else apply_laplacian((fp.u, fp.v)[i], grid)


def _quadratic_parts(fp: FieldPair, ps: PotentialSet, grid: Grid) -> tuple[float, float]:
    """(||(u,v)||_E^2, 2 * integral lambda u v) from one density sweep; the
    identity |grad u|^2 -> u (-Lap u) keeps B consistent with the Laplacian."""
    _check(fp, ps, grid)
    u, v = fp.u, fp.v
    with np.errstate(over="ignore", invalid="ignore"):
        density = (
            u * (-_laplacian(fp, 0, grid)) + v * (-_laplacian(fp, 1, grid))
            + ps.v1 * u * u + ps.v2 * v * v
        )
        return integrate(density, grid), 2.0 * integrate(ps.lam * u * v, grid)


def pair_invariants(fp: FieldPair, ps: PotentialSet, spec: ProblemSpec, grid: Grid) -> PairInvariants:
    """Compute (B, 2*coupling, mu ||u||_p^p, ||v||_q^q) in one sweep."""
    norm_e_sq, coupling = _quadratic_parts(fp, ps, grid)
    pnorm = lp_integral(fp.u, spec.p, grid) if spec.mu != 0.0 else 0.0
    qnorm = lp_integral(fp.v, spec.q, grid)
    return PairInvariants(norm_e_sq - coupling, coupling, spec.mu * pnorm, qnorm)


def quadratic_form(fp: FieldPair, ps: PotentialSet, grid: Grid) -> float:
    """B(u, v): both weighted H^1 norms minus twice the coupling integral.

    For validated potentials B >= (1 - delta) ||(u,v)||_E^2 holds nodewise up
    to rounding, because the arithmetic-geometric mean argument survives
    nonnegative quadrature weights.
    """
    norm_e_sq, coupling = _quadratic_parts(fp, ps, grid)
    return norm_e_sq - coupling


def pair_norm_e_sq(fp: FieldPair, ps: PotentialSet, grid: Grid) -> float:
    """||(u,v)||_E^2 without the coupling term."""
    return _quadratic_parts(fp, ps, grid)[0]


def energy(fp: FieldPair, ps: PotentialSet, spec: ProblemSpec, grid: Grid) -> EnergyBreakdown:
    """Itemized energy of a pair; raises if any part is non-finite."""
    inv = pair_invariants(fp, ps, spec, grid)
    pterm = inv.pnorm_mu / spec.p
    qterm = inv.qnorm / spec.q
    total = 0.5 * inv.quad - pterm - qterm
    if not np.isfinite(total):
        raise NonFiniteEnergyError(
            f"energy is not finite (quad={inv.quad}, pterm={pterm}, qterm={qterm})"
        )
    return EnergyBreakdown(inv.quad, inv.coupling, pterm, qterm, total)


def odd_power(f: np.ndarray, p: float) -> np.ndarray:
    """|f|^(p-2) f with |0|^(p-2) 0 = 0; continuous at 0 since p > 2.

    Whole p is raised by multiplication (p = 4: f f f, p = 6: (f f)^2 f).
    """
    with np.errstate(over="ignore"):
        if float(p).is_integer() and p >= 3:
            return f * _whole_power(np.abs(f), int(p) - 2)
        return np.sign(f) * np.abs(f) ** (p - 1.0)


def energy_gradient(fp: FieldPair, ps: PotentialSet, spec: ProblemSpec, grid: Grid) -> FieldPair:
    """L^2 representative of the energy derivative.

    Pairing the returned fields against any test pair under the grid
    quadrature reproduces the directional derivative of the energy.
    """
    _check(fp, ps, grid)
    u, v = fp.u, fp.v
    gu = -_laplacian(fp, 0, grid) + ps.v1 * u - ps.lam * v
    if spec.mu != 0.0:
        gu -= spec.mu * odd_power(u, spec.p)
    gv = -_laplacian(fp, 1, grid) + ps.v2 * v - odd_power(v, spec.q) - ps.lam * u
    return FieldPair(gu, gv, grid)


def nehari_value(fp: FieldPair, ps: PotentialSet, spec: ProblemSpec, grid: Grid) -> float:
    """J(u, v) = B - mu ||u||_p^p - ||v||_q^q; zero on the Nehari manifold."""
    inv = pair_invariants(fp, ps, spec, grid)
    return inv.quad - inv.pnorm_mu - inv.qnorm


def pair_inner(a: FieldPair, b: FieldPair, grid: Grid) -> float:
    """Quadrature L^2 inner product on pairs."""
    return integrate(a.u * b.u + a.v * b.v, grid)


def pair_norm_l2(a: FieldPair, grid: Grid) -> float:
    return float(np.sqrt(max(pair_inner(a, a, grid), 0.0)))
