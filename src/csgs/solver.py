"""Ground-state minimization over the Nehari manifold, sweeps, comparisons.

The minimizer runs projected gradient descent: project the current pair
onto the manifold, step against the full energy gradient with a
Barzilai-Borwein trial step and Armijo backtracking, re-project, accept
on sufficient decrease.  Once the model decrease falls below the rounding
floor of the energy, the same line search accepts a step within rounding
noise of the lowest recorded energy if it lowers the gradient norm, so one
loop runs the solve to tolerance.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateNonlinearityError,
    GridMismatchError,
    NonFiniteEnergyError,
    NonpositiveQuadraticFormError,
    ZeroFieldError,
)
from .functional import PairInvariants, ProblemSpec, _gradient, _invariants
from .grid import (
    FieldPair,
    Grid,
    _forward,
    _inverse,
    _quadrature,
    apply_laplacian,
    integrate,
    spectral_partials,
)
from .nehari import fibering_scale_from_invariants
from .potentials import PotentialSet

INIT_MODES = ("gaussian-bump", "random", "file")

_NO_FIBERING_SCALE = (DegenerateNonlinearityError, NonpositiveQuadraticFormError,
                      NonFiniteEnergyError)
_EPS = float(np.finfo(float).eps)

# descent line search: first trial step, backtracking factor, and the
# Armijo sufficient-decrease fraction
_STEP0 = 1.0
_BACKTRACK = 0.5
_ARMIJO = 1e-4


@dataclass(frozen=True)
class SolveOptions:
    """Knobs of the manifold descent."""

    max_iters: int = 5000
    grad_tol: float = 1e-6
    seed: int = 0
    init: str = "gaussian-bump"
    init_path: str | None = None

    def __post_init__(self) -> None:
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError(f"grad_tol must be positive and finite, got {self.grad_tol}")
        if self.init not in INIT_MODES:
            raise ValueError(f"unknown init mode {self.init!r}")


@dataclass
class SolveReport:
    """Outcome of one ground-state minimization."""

    field: FieldPair
    energy: float
    grad_norm: float
    iterations: int
    energy_trace: list[float]
    grad_trace: list[float]
    converged: bool
    spec: ProblemSpec
    field_norm_e_sq: float
    failure: str | None = None
    gradient_evals: int = 0  # energy_gradient evaluations, rejected floor trials included
    trials: int = 0  # trial points the line search evaluated

    def rows(self) -> list[tuple]:
        """CSV rows: the header, then (iter, energy, grad_norm) per traced step."""
        trace = enumerate(zip(self.energy_trace, self.grad_trace))
        return [("iter", "energy", "grad_norm"), *((i, e, g) for i, (e, g) in trace)]


@dataclass
class MuSweep:
    """Energies across a mu schedule, with the compactness threshold."""

    mu_values: list[float]
    energies: list[float]
    threshold: float | None
    mu0_estimate: float | None
    converged: list[bool]
    reports: list[SolveReport] = field(repr=False, default_factory=list)

    def rows(self) -> list[tuple]:
        """CSV rows; the threshold cells stay empty when there is no threshold."""
        rows = [("mu", "c", "threshold", "below_threshold")]
        for mu, c, ok in zip(self.mu_values, self.energies, self.converged):
            below = None if self.threshold is None else _below(c, ok, self.threshold)
            rows.append((mu, c, self.threshold, below))
        return rows


@dataclass(frozen=True)
class ComparisonReport:
    """Ground-level comparison between a periodic and an asymptotic run."""

    c_periodic: float
    c_asym: float
    gap: float
    margin: float
    passed: bool

    def rows(self) -> list[tuple]:
        """CSV rows: the field names, then their values."""
        return [tuple(f.name for f in fields(self)), astuple(self)]


def initial_pair(grid: Grid, opts: SolveOptions, init_field: FieldPair | None = None) -> FieldPair:
    """Starting pair per the configured init mode."""
    if init_field is not None:
        grid.check_same(init_field.grid)
        return init_field
    if opts.init == "gaussian-bump":
        width = grid.spec.half_width / 4.0
        bump = np.exp(-grid.radius_sq / (2.0 * width * width))
        # deliberately unequal amplitudes: an exactly symmetric start would
        # pin symmetric problems to the symmetric saddle of the manifold
        return FieldPair(0.9 * bump, 1.1 * bump, grid)
    if opts.init == "random":
        rng = np.random.default_rng(opts.seed)
        return FieldPair(
            rng.standard_normal(grid.shape), rng.standard_normal(grid.shape), grid
        )
    raise ValueError("init mode 'file' requires an explicit init_field")


def _norm_e_sq_at(inv: PairInvariants, t: float) -> float:
    """||(t u, t v)||_E^2 from the invariants of (u, v)."""
    return t * t * inv.quad + t * t * inv.coupling


def _norm(g: np.ndarray, grid: Grid) -> float:
    """The L^2 norm of a gradient block (gu, gv), summed as :func:`pair_norm_l2` sums it."""
    return math.sqrt(max(_quadrature(g[0] * g[0] + g[1] * g[1], grid), 0.0))


@np.errstate(over="ignore", invalid="ignore")  # one guard for the whole solve
def minimize_ground_state(
    ps: PotentialSet,
    spec: ProblemSpec,
    grid: Grid,
    opts: SolveOptions | None = None,
    init_field: FieldPair | None = None,
) -> SolveReport:
    """Minimize the energy over the discrete Nehari manifold.

    Deterministic for fixed (seed, grid, potentials, spec, options).  The
    recorded energy trace is non-increasing: a rounding-floor step (accepted
    for lowering the gradient norm within ``32 eps max(|E|, 1)`` of the
    lowest recorded energy) counts as an iteration but is traced only if it
    does not rise, and the returned energy is within that band of the
    trace's minimum.  The converged flag reports honestly whether the
    gradient tolerance was met, with a zero budget too; otherwise
    ``failure`` is "stagnated" (line search gave up), "budget", or "initial
    projection failed: ..." when the start has no fibering scale (zero,
    degenerate, B <= 0 or non-finite invariants); that report, of 0
    iterations, is on the start as given, unscaled, with its energy I(u, v)
    and gradient.  The solve keeps every point and gradient in a block with
    their Laplacians, so an iteration makes one Laplacian call, on the new
    gradient's two fields; a caller's ``init_field`` is read, never written.
    """
    opts = opts or SolveOptions()
    if spec.dim != grid.spec.dim:
        raise GridMismatchError(
            f"problem dim {spec.dim} does not match grid dim {grid.spec.dim}"
        )
    grid.check_same(ps.grid)

    start = initial_pair(grid, opts, init_field)
    # the solve's state, allocated once: the current and the trial point, each u, v and
    # their Laplacians; the current and the new gradient, laid out alike; two scratch arrays
    cur, trial, grad, grad_new = np.empty((4, 4, *grid.shape))
    w1, w2 = np.empty((2, *grid.shape))
    cur[0], cur[1] = start.u, start.v
    apply_laplacian(cur[:2], grid, out=cur[2:])
    inv = _invariants(*cur, ps, spec, grid, w1, w2)
    failure = None
    try:
        diag = fibering_scale_from_invariants(inv, spec)
    except _NO_FIBERING_SCALE as exc:  # no descent: the report is on the start as given
        failure = f"initial projection failed: {exc}"
        e_cur, norm_e_sq = inv.energy_at(1.0, spec), inv.norm_e_sq
    else:
        cur *= diag.t_mu
        e_cur, norm_e_sq = diag.g_at_t, _norm_e_sq_at(inv, diag.t_mu)

    _gradient(*cur, ps, spec, *grad[:2], w1, w2)
    grad_evals, trials = 1, 0
    gnorm = _norm(grad, grid)
    energy_trace = [float(e_cur)]
    grad_trace = [gnorm]
    iterations = 0
    stagnated = False
    step = _STEP0
    bb_flip = False

    for k in range(opts.max_iters if failure is None else 0):
        if gnorm <= opts.grad_tol:
            break

        # backtracked step along the negative gradient, then re-project; the Laplacian is linear,
        # so the trial point's follows from the current one's; a trial is scaled only if kept
        apply_laplacian(grad[:2], grid, out=grad[2:])
        gnorm_sq = gnorm * gnorm
        e_scale = max(abs(e_cur), 1.0)
        s = step
        for _ in range(60):
            trials += 1
            np.subtract(cur, np.multiply(grad, s, out=trial), out=trial)
            try:
                inv = _invariants(*trial, ps, spec, grid, w1, w2)
                diag = fibering_scale_from_invariants(inv, spec)
            except _NO_FIBERING_SCALE:
                s *= _BACKTRACK
                continue
            e_new = diag.g_at_t
            # at the rounding floor the model decrease is below one ulp of
            # the energy, so energy differences are noise: accept a
            # non-increase, or an energy within rounding noise of the lowest
            # recorded one whose gradient norm is lower
            at_floor = s * gnorm_sq <= 1e-13 * e_scale
            accept = e_new <= e_cur - _ARMIJO * s * gnorm_sq or (at_floor and e_new <= e_cur)
            if accept or (at_floor and e_new <= energy_trace[-1] + 32.0 * _EPS * e_scale):
                trial *= diag.t_mu
                _gradient(*trial, ps, spec, *grad_new[:2], w1, w2)
                grad_evals += 1
                if accept or _norm(grad_new, grid) < gnorm:
                    break
            s *= _BACKTRACK
        else:  # no trial accepted
            stagnated = True
            break
        iterations = k + 1

        # alternating Barzilai-Borwein trial step for the next iteration, from differences
        # written over the spent current point and gradient
        du, dv = np.subtract(trial[:2], cur[:2], out=cur[:2])
        dgu, dgv = np.subtract(grad_new[:2], grad[:2], out=grad[:2])
        bb_flip = not bb_flip
        if bb_flip:
            num = _quadrature(du * du + dv * dv, grid)
            den = _quadrature(du * dgu + dv * dgv, grid)
        else:
            num = _quadrature(du * dgu + dv * dgv, grid)
            den = _quadrature(dgu * dgu + dgv * dgv, grid)
        if math.isfinite(den) and den > 0.0 and math.isfinite(num) and num > 0.0:
            step = min(max(num / den, 1e-12), 1e10)
        else:
            step = min(s * 2.0, _STEP0)

        cur, trial, grad, grad_new = trial, cur, grad_new, grad
        e_cur, norm_e_sq = e_new, _norm_e_sq_at(inv, diag.t_mu)
        gnorm = _norm(grad, grid)
        # a floor step may sit a few ulps above the lowest energy; the
        # trace records only non-increases
        if e_cur <= energy_trace[-1]:
            energy_trace.append(float(e_cur))
            grad_trace.append(gnorm)

    converged = failure is None and gnorm <= opts.grad_tol
    return SolveReport(
        field=FieldPair(cur[0].copy(), cur[1].copy(), grid),
        energy=float(e_cur),
        grad_norm=gnorm,
        iterations=iterations,
        energy_trace=energy_trace,
        grad_trace=grad_trace,
        converged=converged,
        spec=spec,
        field_norm_e_sq=float(norm_e_sq),
        failure=None if converged else failure or ("stagnated" if stagnated else "budget"),
        gradient_evals=grad_evals,
        trials=trials,
    )


# nonneg_refine's two solves: the polish, and the projection a zero-iteration solve makes
_POLISH = SolveOptions(max_iters=500, init="file")
_PROJECTION = SolveOptions(max_iters=0, init="file")


def nonneg_refine(
    report: SolveReport,
    ps: PotentialSet,
    spec: ProblemSpec,
    grid: Grid,
) -> SolveReport:
    """Replace the minimizer by its nonnegative representative and repolish.

    Two solves: a polish of at most 500 iterations from (|u|, |v|), which it
    projects onto the manifold (with nonnegative coupling this cannot raise
    the energy: the pointwise inequality survives nonnegative quadrature
    weights), then a zero-iteration solve, whose projection of the polished
    magnitudes is nodewise nonnegative.  The report is the projection's with
    the polish's iterations, trials, ``converged`` and ``failure``, joined
    traces and summed gradient counts; a start failure passes through.
    """
    polished = minimize_ground_state(ps, spec, grid, _POLISH, init_field=report.field.magnitudes())
    final = minimize_ground_state(ps, spec, grid, _PROJECTION,
                                  init_field=polished.field.magnitudes())
    return replace(
        final,
        iterations=polished.iterations,
        energy_trace=polished.energy_trace + final.energy_trace,
        grad_trace=polished.grad_trace + final.grad_trace,
        converged=polished.converged,
        failure=polished.failure,
        gradient_evals=polished.gradient_evals + final.gradient_evals,
        trials=polished.trials,
    )


# -- sharp Sobolev constant -------------------------------------------------


def aubin_talenti_bubble(grid: Grid, scale: float = 1.0) -> np.ndarray:
    """The radial Sobolev extremal (3 s^2)^(1/4) (s^2 + |x|^2)^(-1/2), d = 3.

    Every member of the dilation family solves -Lap v = v^5; scale controls
    the concentration and must be finite and positive (ValueError otherwise).
    """
    if grid.spec.dim != 3:
        raise GridMismatchError("the Sobolev extremal profile is defined for d = 3")
    if not 0.0 < scale < math.inf:
        raise ValueError(f"the bubble scale must be finite and positive, got {scale}")
    s2 = scale * scale
    return (3.0 * s2) ** 0.25 / np.sqrt(s2 + grid.radius_sq)


def _quotient_parts(f: np.ndarray, grid: Grid) -> tuple[float, float, np.ndarray]:
    """(integral of f (-Lap f), integral of f^6, Lap f); the quotient is num / den6^(1/3)."""
    lap = apply_laplacian(f, grid)
    return integrate(f * (-lap), grid), integrate(f**6, grid), lap


def sobolev_quotient(f: np.ndarray, grid: Grid) -> float:
    """Rayleigh quotient |grad f|_2^2 / |f|_6^2 under the grid quadrature."""
    if grid.spec.dim != 3:
        raise GridMismatchError("the Sobolev quotient is computed for d = 3")
    num, den6, _ = _quotient_parts(f, grid)
    den = den6 ** (1.0 / 3.0)
    if den <= 0.0:
        raise ZeroFieldError("Sobolev quotient of the zero field")
    return float(num / den)


def estimate_sobolev_constant(grid: Grid, *, search_radius: float = 0.01) -> float:
    """Estimate the sharp embedding constant by polishing the extremal bubble.

    Gradient descent on the Rayleigh quotient from the sampled unit bubble,
    restricted to the L^2 ball of relative radius ``search_radius`` around
    it.  The restriction is what makes the problem well posed: at critical
    exponent the unconstrained discrete quotient has no positive critical
    point on the box (integrating -Lap u = u^5 over the torus forces u = 0,
    and star-shaped truncations are obstructed by the dilation identity),
    so an unconstrained descent drains the quotient into mesh artifacts -
    under-resolved spikes or the constant mode.  Within the trust ball the
    constrained minimizer exists, the descent direction is additionally
    smoothed by an H^1 preconditioner and projected off the quotient's
    symmetry directions (constants, dilations, translations), and the
    returned value converges under grid refinement a couple of percent
    below the sampled bubble's quotient.  The five directions live in one
    block per polish, and each projection goes through their 5x5 quadrature
    Gram matrix: Gram-Schmidt on coefficient vectors in that order (dropping
    a direction whose remaining norm is at most 1e-13), then two products
    over the block, by ``np.einsum``, not BLAS, whose rounding varies by CPU.

    The polish stops when the preconditioned slope is at most
    ``1e-8 max(1, quotient)``.  On the ball's wall, where a step that points
    out of the ball is clipped back onto it, the slope tested is that of
    the step's tangential part; a constrained minimum on the wall therefore
    stops the polish at once.  It also stops when no step inside the ball
    (60 halvings) lowers the quotient by ``1e-12`` relative, and raises
    :class:`ConvergenceError` after 400 iterations.  Each quotient
    evaluation applies one Laplacian, which the next iteration's gradient
    reuses.
    """
    if grid.spec.dim != 3:
        raise GridMismatchError("Sobolev constant estimation requires d = 3")
    if not grid.is_periodic:
        raise GridMismatchError("Sobolev constant estimation runs on periodic grids")
    if not 0.0 < search_radius < 0.5:
        raise ValueError(f"search_radius must lie in (0, 0.5), got {search_radius}")

    anchor = aubin_talenti_bubble(grid)
    cap = search_radius * np.sqrt(integrate(anchor * anchor, grid))
    u = anchor.copy()
    num, den6, lap = _quotient_parts(u, grid)
    quot = num / den6 ** (1.0 / 3.0)
    on_wall = False
    # the symmetry directions: constant (row 0 stays 1), dilation 0.5 u + x . grad u, the three
    # partials; sums run within each of n slabs by einsum, across slabs by pairwise np.add.reduce
    rows = np.ones((5, *grid.shape))
    slabs = rows.reshape(5, grid.spec.points_per_dim, -1)

    step = 1.0
    # (1 - Lap)^-1 by the spectral symbol, fd2 too: the stencil's moves fd2 estimates by ~1e-4
    smoother = 1.0 - grid._lap_multiplier

    def clip_to_ball(f):
        """The nearest point of the ball, and whether it lies on the wall."""
        w = f - anchor
        wn = np.sqrt(max(integrate(w * w, grid), 0.0))
        if wn > cap:
            return anchor + w * (cap / wn), True
        return f, False

    def project(f):
        """f minus its quadrature projection onto the span of the rows, by ``onto``."""
        inner = np.add.reduce(np.einsum("ibk,bk->ib", slabs, f.reshape(slabs.shape[1:])), 1)
        return f - np.einsum("i,i...", np.einsum("ij,j", onto, grid.cell_volume * inner), rows)

    for _ in range(400):
        den2 = den6 ** (1.0 / 3.0)
        raw = (2.0 / den2) * ((-lap) - (num / den6) * u**5)

        rows[2:] = spectral_partials(u, grid)
        rows[1] = 0.5 * u + sum(c * d for c, d in zip(grid.coords, rows[2:]))
        gram = grid.cell_volume * np.add.reduce(np.einsum("ibk,jbk->ijb", slabs, slabs), axis=2)
        basis = []  # Gram-Schmidt on coefficient vectors over the rows
        for c in np.eye(5):
            for b in basis:
                c = c - np.einsum("i,ij,j", c, gram, b) * b
            nrm = math.sqrt(max(np.einsum("i,ij,j", c, gram, c), 0.0))
            if nrm > 1e-13:
                basis.append(c / nrm)
        onto = np.einsum("ki,kj->ij", basis, basis)  # the projector in row coefficients
        direction = project(_inverse(_forward(project(raw), grid) / smoother, grid))

        slope = integrate(direction * raw, grid)
        if on_wall:
            normal = (u - anchor) / cap
            outward = integrate(direction * normal, grid)
            if outward < 0.0:  # the step leaves the ball: only its tangential part is feasible
                slope -= outward * integrate(normal * raw, grid)
        if slope <= 1e-8 * max(1.0, quot):
            return float(quot)

        accepted = False
        s = step
        for _ in range(60):
            cand, clipped = clip_to_ball(u - s * direction)
            num_c, den6_c, lap_c = _quotient_parts(cand, grid)
            if den6_c > 0.0:
                quot_c = num_c / den6_c ** (1.0 / 3.0)
                if np.isfinite(quot_c) and quot_c < quot - 1e-12 * max(1.0, abs(quot)):
                    accepted = True
                    break
            s *= 0.5
        if not accepted:
            return float(quot)  # constrained stationarity: no feasible descent
        u, num, den6, quot, lap, on_wall = cand, num_c, den6_c, quot_c, lap_c, clipped
        step = min(s * 2.0, 1e3)

    raise ConvergenceError("Sobolev polish still descending after 400 iterations")


# -- mu sweep and energy comparison -----------------------------------------


def compactness_threshold(sobolev_constant: float, dim: int) -> float:
    """The level S^(d/2)/d below which a critical-q minimizer is compact; S > 0 finite."""
    if not 0.0 < sobolev_constant < math.inf:
        raise ValueError(f"the Sobolev constant must be finite and positive, got {sobolev_constant}")
    return sobolev_constant ** (dim / 2.0) / dim


def _below(c: float, converged: bool, threshold: float) -> bool:
    return bool(converged and np.isfinite(c) and c < threshold)


def sweep_mu(
    ps: PotentialSet,
    spec_template: ProblemSpec,
    grid: Grid,
    mu_values: list[float],
    opts: SolveOptions | None = None,
    *,
    sobolev_constant: float | None = None,
) -> MuSweep:
    """One ground-state solve per mu, warm-started along the schedule.

    In the critical-q regime the compactness threshold S^(d/2)/d is attached
    (S estimated on this grid unless supplied; a supplied S that is not
    finite and positive raises ValueError before any solve), and the first
    mu whose energy falls below it is reported.
    """
    if len(mu_values) == 0:
        raise ValueError("mu_values must be non-empty")
    mus = [float(m) for m in mu_values]
    if any(m < 0 for m in mus):
        raise ValueError("mu values must be nonnegative")
    if any(b <= a for a, b in zip(mus, mus[1:])):
        raise ValueError("mu_values must be strictly increasing")
    opts = opts or SolveOptions()

    threshold = None
    if spec_template.regime == "critical-q":
        s_const = sobolev_constant if sobolev_constant is not None else estimate_sobolev_constant(grid)
        threshold = compactness_threshold(s_const, spec_template.dim)

    reports: list[SolveReport] = []
    energies: list[float] = []
    converged: list[bool] = []
    warm: FieldPair | None = None
    for mu in mus:
        spec = spec_template.with_mu(mu)
        # warm continuation can ride a branch past the point where it stops
        # being the ground state, so always cross-check against a cold start
        # and keep the lower converged energy
        candidates: list[SolveReport] = []
        for init in ([warm] if warm is not None else []) + [None]:
            candidates.append(minimize_ground_state(ps, spec, grid, opts, init_field=init))
        good = [r for r in candidates if r.converged]
        rep = min(good, key=lambda r: r.energy) if good else candidates[0]
        reports.append(rep)
        energies.append(rep.energy)
        converged.append(rep.converged)
        if rep.converged:
            warm = rep.field

    mu0 = None
    if threshold is not None:
        for mu, c, ok in zip(mus, energies, converged):
            if _below(c, ok, threshold):
                mu0 = mu
                break

    return MuSweep(mus, energies, threshold, mu0, converged, reports)


def compare_energies(
    report_periodic: SolveReport, report_asym: SolveReport, margin: float = 0.0
) -> ComparisonReport:
    """Check that the asymptotic ground level sits strictly below the periodic one.

    The gap must exceed ``margin`` by a slack of 1e-9 relative to the larger
    energy (absolute below magnitude 1), so rounding noise never passes; a
    margin that is negative or not finite would loosen that and raises
    ValueError.
    """
    if not 0.0 <= margin < math.inf:
        raise ValueError(f"the margin must be finite and nonnegative, got {margin}")
    report_periodic.field.grid.check_same(report_asym.field.grid)
    if report_periodic.spec != report_asym.spec:
        raise GridMismatchError("comparison requires reports with identical exponents and mu")
    gap = report_periodic.energy - report_asym.energy
    slack = 1e-9 * max(1.0, abs(report_periodic.energy), abs(report_asym.energy))
    passed = bool(gap > margin + slack)
    return ComparisonReport(report_periodic.energy, report_asym.energy, gap, margin, passed)
