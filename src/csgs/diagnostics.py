"""Pohozaev residual and the sign-constraint certificate at double criticality.

A classical solution of the doubly critical system satisfies an integral
identity obtained by pairing the equations with radial dilations.  On the
grid the identity becomes a residual functional: it vanishes (up to
truncation and quadrature error) at solutions and is generically large
elsewhere.  Combining it with the weak-solution identity forces

    Q(u, v) = integral of (V1 u^2 + V2 v^2 - 2 lambda u v)

to be simultaneously >= 0 (from the coupling bound, nodewise exact under
nonnegative weights) and <= 0 (from the radial-derivative sign conditions),
which is the quantified contradiction behind the nonexistence theorem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CandidateNotPositiveError
from .functional import ProblemSpec, energy_gradient, pair_norm_l2
from .grid import FieldPair, Grid, apply_laplacian, integrate
from .potentials import PotentialSet, _shell_mask


@dataclass
class PohozaevReport:
    """Dilation-identity balance for one field pair."""

    lhs: float                    # integral of |grad u|^2 + |grad v|^2
    rhs: float
    residual: float               # |lhs - rhs|
    relative: float               # residual / max(1, |lhs|)
    terms: dict[str, float]
    grad_norm: float
    near_critical: bool           # gradient norm <= 1e-3: identity meaningful
    boundary_shell_max: float     # max |field| on the outer shell |x|_inf >= 0.8 L
    radial_paths: tuple[str, str, str]


@dataclass
class NonexistenceReport:
    """Contradiction margins of the sign-constraint chain for a candidate."""

    q_value: float                # Q = int V1 u^2 + V2 v^2 - 2 lambda u v
    q_nonneg_ok: bool             # Q >= -1e-12 * scale (discrete-exact side)
    pohozaev_side: float          # the combination the identity forces Q to equal
    margin: float                 # q_value - pohozaev_side
    q_amgm: float                 # int V1 u^2 - 2 sqrt(V1 V2) u v + V2 v^2
    q_delta: float                # int V1 u^2 + V2 v^2 - (2/delta) lambda u v
    strict_gap: float             # q_value - q_delta = (2/delta - 2) int lambda u v
    lambda_sign: str              # positive / negative / mixed / zero
    scale: float


def _require_double_critical(spec: ProblemSpec, grid: Grid) -> None:
    if grid.spec.dim != 3 or spec.dim != 3:
        raise ValueError("the dilation identity is implemented for d = 3")
    if spec.regime != "critical-both":
        raise ValueError(
            f"p and q must both equal the critical exponent 6, got p={spec.p}, q={spec.q}"
        )


def _shell_max(fp: FieldPair, grid: Grid) -> float:
    mask = _shell_mask(grid)
    if not np.any(mask):
        return 0.0
    return float(max(np.max(np.abs(fp.u[mask])), np.max(np.abs(fp.v[mask]))))


def pohozaev_residual(
    fp: FieldPair, ps: PotentialSet, spec: ProblemSpec, grid: Grid
) -> PohozaevReport:
    """Evaluate both sides of the dilation identity and itemize the right side.

    Radial-derivative integrals use the analytic potential definitions
    (callbacks or closed forms, central differences as fallback), never
    stencil derivatives of the sampled arrays.  The report flags whether
    the pair is near-critical, since the identity is only asserted for
    solutions, and records the field magnitude on the boundary shell where
    the periodic truncation pollutes the balance.
    """
    _require_double_critical(spec, grid)
    ps.check_grid(grid)
    grid.check_conforms(fp.u)

    u, v = fp.u, fp.v
    n = 3
    two_star = 6.0

    rad_v1, path1 = ps.defs[0].radial_derivative(grid.coords, grid.spacing)
    rad_v2, path2 = ps.defs[1].radial_derivative(grid.coords, grid.spacing)
    rad_lam, path3 = ps.defs[2].radial_derivative(grid.coords, grid.spacing)

    terms = {
        "mu_u_critical": spec.mu * integrate(np.abs(u) ** two_star, grid),
        "v_critical": integrate(np.abs(v) ** two_star, grid),
        "coupling": two_star * integrate(ps.lam * u * v, grid),
        "coupling_radial": (2.0 / (n - 2)) * integrate(rad_lam * u * v, grid),
        "potential": -(two_star / 2.0) * integrate(ps.v1 * u * u + ps.v2 * v * v, grid),
        "potential_radial": -(1.0 / (n - 2))
        * integrate(rad_v1 * u * u + rad_v2 * v * v, grid),
    }
    rhs = sum(terms.values())
    lhs = integrate(u * (-apply_laplacian(u, grid)) + v * (-apply_laplacian(v, grid)), grid)
    residual = abs(lhs - rhs)

    grad_norm = pair_norm_l2(energy_gradient(fp, ps, spec, grid), grid)

    return PohozaevReport(
        lhs=float(lhs),
        rhs=float(rhs),
        residual=float(residual),
        relative=float(residual / max(1.0, abs(lhs))),
        terms=terms,
        grad_norm=grad_norm,
        near_critical=bool(grad_norm <= 1e-3),
        boundary_shell_max=_shell_max(fp, grid),
        radial_paths=(path1, path2, path3),
    )


def nonexistence_certificate(
    fp: FieldPair, ps: PotentialSet, spec: ProblemSpec, grid: Grid
) -> NonexistenceReport:
    """Quantify the opposing sign constraints for a positive candidate pair.

    The coupling bound forces Q >= 0 exactly in the discrete setting; the
    dilation identity combined with the radial sign conditions forces the
    equal-for-solutions combination to be <= 0.  The margin between the two
    is the certificate: for candidates near a would-be positive solution it
    measures how the contradiction closes.
    """
    _require_double_critical(spec, grid)
    ps.check_grid(grid)
    grid.check_conforms(fp.u)

    for label, f in (("u", fp.u), ("v", fp.v)):
        worst = np.unravel_index(int(np.argmin(f)), grid.shape)
        if f[worst] <= 0.0:
            coord = tuple(float(grid.axis_coords[i]) for i in worst)
            raise CandidateNotPositiveError(
                f"candidate {label} is not strictly positive at node {coord} "
                f"(value {f[worst]!r})"
            )

    u, v = fp.u, fp.v
    q_value = integrate(ps.v1 * u * u + ps.v2 * v * v - 2.0 * ps.lam * u * v, grid)
    scale = max(1.0, integrate(ps.v1 * u * u + ps.v2 * v * v, grid))

    rad_v1, _ = ps.defs[0].radial_derivative(grid.coords, grid.spacing)
    rad_v2, _ = ps.defs[1].radial_derivative(grid.coords, grid.spacing)
    rad_lam, _ = ps.defs[2].radial_derivative(grid.coords, grid.spacing)
    pohozaev_side = integrate(rad_lam * u * v, grid) - 0.5 * integrate(
        rad_v1 * u * u + rad_v2 * v * v, grid
    )

    root = np.sqrt(np.maximum(ps.v1, 0.0) * np.maximum(ps.v2, 0.0))
    q_amgm = integrate(ps.v1 * u * u - 2.0 * root * u * v + ps.v2 * v * v, grid)
    q_delta = integrate(
        ps.v1 * u * u + ps.v2 * v * v - (2.0 / ps.delta) * ps.lam * u * v, grid
    )

    has_pos = bool(np.any(ps.lam > 0.0))
    has_neg = bool(np.any(ps.lam < 0.0))
    lambda_sign = {
        (True, True): "mixed",
        (True, False): "positive",
        (False, True): "negative",
        (False, False): "zero",
    }[(has_pos, has_neg)]

    return NonexistenceReport(
        q_value=float(q_value),
        q_nonneg_ok=bool(q_value >= -1e-12 * scale),
        pohozaev_side=float(pohozaev_side),
        margin=float(q_value - pohozaev_side),
        q_amgm=float(q_amgm),
        q_delta=float(q_delta),
        strict_gap=float(q_value - q_delta),
        lambda_sign=lambda_sign,
        scale=float(scale),
    )


def coupling_sign_value(fp: FieldPair, ps: PotentialSet, grid: Grid) -> float:
    """Q(u, v) alone; nonnegative for validated coupling bounds, any pair."""
    ps.check_grid(grid)
    grid.check_conforms(fp.u)
    return float(
        integrate(ps.v1 * fp.u**2 + ps.v2 * fp.v**2 - 2.0 * ps.lam * fp.u * fp.v, grid)
    )
