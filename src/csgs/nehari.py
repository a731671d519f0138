"""Fibering scale and projection onto the discrete Nehari manifold.

For a nonzero pair, the scaled-pair energy g(t) = I(tu, tv) has a unique
interior maximizer t* > 0, the positive root of

    phi(t) = t^(p-2) mu ||u||_p^p + t^(q-2) ||v||_q^q - B(u, v),

which is strictly increasing for t > 0 because p, q > 2.  The projection
(t* u, t* v) lies on the manifold J = 0 and realizes max_{t >= 0} g(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    ConvergenceError,
    DegenerateNonlinearityError,
    NonFiniteEnergyError,
    NonpositiveQuadraticFormError,
    ZeroFieldError,
)
from .functional import PairInvariants, ProblemSpec, pair_invariants
from .grid import FieldPair, Grid
from .potentials import PotentialSet


@dataclass(frozen=True)
class FiberingDiagnostics:
    """Root-finder provenance for one projection."""

    t_mu: float
    g_at_t: float          # energy of the projected pair
    bracket: tuple[float, float]
    iterations: int
    residual: float        # |phi(t_mu)|


def _phi(t: float, a: float, b: float, ep: float, eq: float, quad: float) -> float:
    """phi(t), with ep = p - 2 and eq = q - 2."""
    return t**ep * a + t**eq * b - quad


def fibering_scale_from_invariants(inv: PairInvariants, spec: ProblemSpec) -> FiberingDiagnostics:
    """Solve phi(t) = 0 given precomputed quadrature scalars.

    Raises NonFiniteEnergyError when B, mu ||u||_p^p or ||v||_q^q is not
    finite, when a power of the root, or of a bracket point on the way to
    it, leaves the double range, or when the projected energy is not finite.
    """
    a, b, quad = inv.pnorm_mu, inv.qnorm, inv.quad
    if not (math.isfinite(quad) and math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteEnergyError(
            f"the invariants B = {quad}, mu ||u||_p^p = {a}, ||v||_q^q = {b} are not all finite"
        )
    if a + b <= 0.0:
        raise DegenerateNonlinearityError(
            "mu ||u||_p^p + ||v||_q^q vanishes; no fibering scale exists "
            "(e.g. mu = 0 with v identically zero)"
        )
    if quad <= 0.0:
        raise NonpositiveQuadraticFormError(
            f"quadratic form B = {quad} is not positive; potentials likely unvalidated"
        )
    # Python floats raise on overflow in ** instead of returning inf
    try:
        t, phi_t, bracket, iterations = _root(a, b, quad, spec)
        g_at_t = inv.energy_at(t, spec)
    except OverflowError:
        raise NonFiniteEnergyError(
            f"the fibering root for B = {quad}, mu ||u||_p^p = {a}, ||v||_q^q = {b} "
            "has powers outside the double range"
        ) from None
    if not math.isfinite(g_at_t):
        raise NonFiniteEnergyError(f"the projected energy {g_at_t} is not finite")
    return FiberingDiagnostics(float(t), float(g_at_t), bracket, iterations, abs(float(phi_t)))


def _root(a: float, b: float, quad: float, spec: ProblemSpec):
    """The root of phi, phi there, the first bracket and the Newton iterations."""
    ep, eq = spec.p - 2.0, spec.q - 2.0

    # bracket the root starting from [1, 1], expanding by factor 4 in the
    # deficient direction; phi is monotone so this terminates
    lo = hi = 1.0
    phi1 = _phi(1.0, a, b, ep, eq, quad)
    if phi1 == 0.0:
        lo, hi = 0.25, 4.0
    elif phi1 > 0.0:
        lo = 0.25
        while _phi(lo, a, b, ep, eq, quad) > 0.0:
            lo *= 0.25
            if lo < 1e-300:
                raise ConvergenceError("fibering bracket collapsed toward zero")
    else:
        hi = 4.0
        while _phi(hi, a, b, ep, eq, quad) < 0.0:
            hi *= 4.0
            if not math.isfinite(hi) or hi > 1e300:
                # certified analytic cap: phi >= 0 once either term reaches B
                hi = min(
                    (quad / a) ** (1.0 / ep) if a > 0 else math.inf,
                    (quad / b) ** (1.0 / eq) if b > 0 else math.inf,
                )
                break
    bracket = (lo, hi)

    # safeguarded Newton with bisection fallback; the tolerance is relative
    # to B, so a common factor on (B, a, b) leaves the root where it was
    dp, dq = spec.p - 3.0, spec.q - 3.0  # the exponents of phi'
    t = math.sqrt(lo * hi) if phi1 != 0.0 else 1.0
    phi_t = _phi(t, a, b, ep, eq, quad)
    tol = 1e-12 * quad
    iterations = 0
    for iterations in range(1, 201):
        if abs(phi_t) <= tol:
            break
        if phi_t > 0.0:
            hi = t
        else:
            lo = t
        dphi = ep * t**dp * a + eq * t**dq * b
        t_new = t - phi_t / dphi if dphi > 0.0 else 0.5 * (lo + hi)
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
        if t_new == t:
            break
        t = t_new
        phi_t = _phi(t, a, b, ep, eq, quad)
    else:
        raise ConvergenceError("fibering root-finder exhausted its iteration budget")
    return t, phi_t, bracket, iterations


def fibering_scale(
    fp: FieldPair, ps: PotentialSet, spec: ProblemSpec, grid: Grid
) -> FiberingDiagnostics:
    """Unique scale t > 0 placing (tu, tv) on the Nehari manifold.

    Raises ZeroFieldError for the zero pair, DegenerateNonlinearityError
    when both nonlinear terms vanish, NonpositiveQuadraticFormError when
    B <= 0, and NonFiniteEnergyError when the pair has a non-finite
    invariant or projected energy.
    """
    if fp.is_zero():
        raise ZeroFieldError("the zero pair admits no fibering scale")
    inv = pair_invariants(fp, ps, spec, grid)
    return fibering_scale_from_invariants(inv, spec)


def nehari_project(
    fp: FieldPair, ps: PotentialSet, spec: ProblemSpec, grid: Grid
) -> tuple[FieldPair, FiberingDiagnostics]:
    """Scale a nonzero pair onto the manifold: the energy maximum of its ray."""
    diag = fibering_scale(fp, ps, spec, grid)
    return fp.scaled(diag.t_mu), diag
