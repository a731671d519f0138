"""Fibering scale and projection onto the discrete Nehari manifold.

For a nonzero pair, the scaled-pair energy g(t) = I(tu, tv) has a unique
interior maximizer t* > 0, the positive root of

    phi(t) = t^(p-2) mu ||u||_p^p + t^(q-2) ||v||_q^q - B(u, v),

which is strictly increasing for t > 0 because p, q > 2.  The projection
(t* u, t* v) lies on the manifold J = 0 and realizes max_{t >= 0} g(t).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import (
    ConvergenceError,
    DegenerateNonlinearityError,
    NonFiniteEnergyError,
    NonpositiveQuadraticFormError,
    ZeroFieldError,
)
from .functional import PairInvariants, ProblemSpec, _ray_term, pair_invariants
from .grid import FieldPair, Grid
from .potentials import PotentialSet


@dataclass(frozen=True)
class FiberingDiagnostics:
    """Root-finder provenance for one projection."""

    t_mu: float
    g_at_t: float          # energy of the projected pair
    iterations: int
    residual: float        # |phi(t_mu)|


def fibering_scale_from_invariants(inv: PairInvariants, spec: ProblemSpec) -> FiberingDiagnostics:
    """Solve phi(t) = 0 given precomputed quadrature scalars.

    Raises NonFiniteEnergyError when B, mu ||u||_p^p or ||v||_q^q is not
    finite, when the root leaves the normal double range, or when the
    projected energy or one of its terms is not finite.  A power t^2, t^p or
    t^q may overflow or underflow alone: its term is then formed in logarithms.
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
    # Python floats raise on overflow in ** and math.exp instead of returning inf
    try:
        t, phi_t, iterations = _root(a, b, quad, spec)
        g_at_t = inv.energy_at(t, spec)
    except OverflowError:
        raise NonFiniteEnergyError(
            f"the fibering root for B = {quad}, mu ||u||_p^p = {a}, ||v||_q^q = {b} "
            "or a term of its energy lies outside the double range"
        ) from None
    if not math.isfinite(g_at_t):
        raise NonFiniteEnergyError(f"the projected energy {g_at_t} is not finite")
    return FiberingDiagnostics(float(t), float(g_at_t), iterations, abs(float(phi_t)))


def _root(a: float, b: float, quad: float, spec: ProblemSpec):
    """The root of phi, phi there and the Newton iterations.

    In s = log t, psi(s) = log(a e^((p-2)s) + b e^((q-2)s)) - log B is a
    log-sum-exp of affine functions, so it is convex and increasing with slope
    in [p - 2, q - 2]: Newton from s = 0 lands right of the root after its
    first step and then descends to it monotonically.  |psi| <= 1e-12 is a
    tolerance relative to B, so a common factor on (B, a, b) leaves the root
    where it was; the step that meets it is still taken.
    """
    ep, eq = spec.p - 2.0, spec.q - 2.0
    la, lb = (math.log(c) if c > 0.0 else -math.inf for c in (a, b))
    lq = math.log(quad)
    s = 0.0
    for iterations in range(1, 201):
        # the max-shift of logaddexp: a vanishing term weighs exp(-inf) = 0
        x, y = la + ep * s, lb + eq * s
        m = max(x, y)
        wa, wb = math.exp(x - m), math.exp(y - m)
        psi = m + math.log(wa + wb) - lq
        s -= psi * (wa + wb) / (ep * wa + eq * wb)
        if abs(psi) <= 1e-12:
            break
    else:
        raise ConvergenceError("fibering root-finder exhausted its iteration budget")
    t = math.exp(s)  # raises OverflowError above the double range
    if t < sys.float_info.min:  # where math.exp returns a subnormal or 0 instead
        raise OverflowError("the fibering root lies below the normal double range")
    return t, _ray_term(t, ep, a) + _ray_term(t, eq, b) - quad, iterations


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
