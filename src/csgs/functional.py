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

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEnergyError
from .grid import FieldPair, Grid, _lp_sum, _quadrature, _whole_power, apply_laplacian, integrate
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
        for name in ("p", "q", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


def _arrays(fp: FieldPair, grid: Grid) -> tuple[np.ndarray, ...]:
    """(u, v, Lap u, Lap v)."""
    return fp.u, fp.v, apply_laplacian(fp.u, grid), apply_laplacian(fp.v, grid)


def _quadratic_sums(u, v, lap_u, lap_v, ps, grid, w1, w2) -> tuple[float, float]:
    """(||(u,v)||_E^2, 2 * integral lambda u v) on plain arrays, overwriting w1 and w2; the
    density u (-Lap u) + v (-Lap v) + V1 u u + V2 v v (|grad u|^2 -> u (-Lap u) keeps B consistent
    with the Laplacian) is formed as (V1 u u - (u Lap u + v Lap v)) + V2 v v, bit for bit."""
    np.add(np.multiply(u, lap_u, out=w1), np.multiply(v, lap_v, out=w2), out=w1)
    np.subtract(np.multiply(np.multiply(ps.v1, u, out=w2), u, out=w2), w1, out=w2)
    w2 += np.multiply(np.multiply(ps.v2, v, out=w1), v, out=w1)
    coupling = 2.0 * _quadrature(np.multiply(np.multiply(ps.lam, u, out=w1), v, out=w1), grid)
    return _quadrature(w2, grid), coupling


def _quadratic_parts(fp: FieldPair, ps: PotentialSet, grid: Grid) -> tuple[float, float]:
    _check(fp, ps, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        return _quadratic_sums(*_arrays(fp, grid), ps, grid, *np.empty((2, *grid.shape)))


def _invariants(u, v, lap_u, lap_v, ps, spec: ProblemSpec, grid, w1, w2) -> PairInvariants:
    """:func:`pair_invariants` on plain arrays, overwriting w1 and w2."""
    norm_e_sq, coupling = _quadratic_sums(u, v, lap_u, lap_v, ps, grid, w1, w2)
    pnorm = _lp_sum(u, spec.p, grid, w1, w2) if spec.mu != 0.0 else 0.0
    qnorm = _lp_sum(v, spec.q, grid, w1, w2)
    return PairInvariants(norm_e_sq - coupling, coupling, spec.mu * pnorm, qnorm)


def pair_invariants(fp: FieldPair, ps: PotentialSet, spec: ProblemSpec, grid: Grid) -> PairInvariants:
    """Compute (B, 2*coupling, mu ||u||_p^p, ||v||_q^q) in one sweep."""
    _check(fp, ps, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        return _invariants(*_arrays(fp, grid), ps, spec, grid, *np.empty((2, *grid.shape)))


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
        return _odd_power(f, p, np.empty(np.shape(f)))


def _odd_power(f: np.ndarray, p: float, out: np.ndarray, spare=None) -> np.ndarray:
    """:func:`odd_power` into ``out`` without the guard, overwriting ``spare`` if given;
    |f|^k f is f |f|^k bit for bit."""
    a = np.abs(f, out=out)
    if float(p).is_integer() and p >= 3:
        return np.multiply(_whole_power(a, int(p) - 2, spare), f, out=a)
    a **= p - 1.0
    return np.multiply(a, np.sign(f, out=spare), out=a)


def _gradient(u, v, lap_u, lap_v, ps, spec: ProblemSpec, gu, gv, work, spare=None) -> None:
    """:func:`energy_gradient` on plain arrays into gu and gv, overwriting ``work`` and
    ``spare``; -Lap u + V1 u is formed as V1 u - Lap u, the same sum bit for bit."""
    np.subtract(np.multiply(ps.v1, u, out=gu), lap_u, out=gu)
    gu -= np.multiply(ps.lam, v, out=work)
    if spec.mu != 0.0:
        gu -= np.multiply(_odd_power(u, spec.p, work, spare), spec.mu, out=work)
    np.subtract(np.multiply(ps.v2, v, out=gv), lap_v, out=gv)
    gv -= _odd_power(v, spec.q, work, spare)
    gv -= np.multiply(ps.lam, u, out=work)


def energy_gradient(fp: FieldPair, ps: PotentialSet, spec: ProblemSpec, grid: Grid) -> FieldPair:
    """L^2 representative of the energy derivative.

    Pairing the returned fields against any test pair under the grid
    quadrature reproduces the directional derivative of the energy.
    """
    _check(fp, ps, grid)
    arrays, (gu, gv, work) = _arrays(fp, grid), np.empty((3, *grid.shape))
    with np.errstate(over="ignore"):
        _gradient(*arrays, ps, spec, gu, gv, work)
    return FieldPair(gu, gv, grid)


def nehari_value(fp: FieldPair, ps: PotentialSet, spec: ProblemSpec, grid: Grid) -> float:
    """J(u, v) = B - mu ||u||_p^p - ||v||_q^q; zero on the Nehari manifold."""
    inv = pair_invariants(fp, ps, spec, grid)
    return inv.quad - inv.pnorm_mu - inv.qnorm


def pair_inner(a: FieldPair, b: FieldPair, grid: Grid) -> float:
    """Quadrature L^2 inner product on pairs."""
    return integrate(a.u * b.u + a.v * b.v, grid)


def pair_norm_l2(a: FieldPair, grid: Grid) -> float:
    return math.sqrt(max(pair_inner(a, a, grid), 0.0))
