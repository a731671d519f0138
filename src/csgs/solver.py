"""Ground-state minimization over the Nehari manifold, sweeps, comparisons.

The minimizer runs projected gradient descent: project the current pair
onto the manifold, step against the full energy gradient with a
Barzilai-Borwein trial step and Armijo backtracking, re-project, accept
only on sufficient decrease.  On periodic grids with lattice-periodic
potentials the iterate is periodically recentered by the integer lattice
shift that moves its densest node nearest the origin, the discrete stand-in
for recovering compactness by translations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateNonlinearityError,
    GridMismatchError,
    NonFiniteEnergyError,
    NonpositiveQuadraticFormError,
    ZeroFieldError,
)
from .functional import (
    PairInvariants,
    ProblemSpec,
    energy_gradient,
    pair_invariants,
    pair_norm_l2,
)
from .grid import (
    FieldPair,
    Grid,
    apply_laplacian,
    integrate,
    spectral_partials,
    translate_lattice,
)
from .nehari import fibering_scale_from_invariants
from .potentials import PotentialSet

INIT_MODES = ("gaussian-bump", "random", "file")

_PROJECTION_ERRORS = (ZeroFieldError, DegenerateNonlinearityError, NonpositiveQuadraticFormError)


@dataclass(frozen=True)
class SolveOptions:
    """Knobs of the manifold descent."""

    max_iters: int = 5000
    grad_tol: float = 1e-6
    step0: float = 1.0
    armijo_factor: float = 0.5
    armijo_decrease: float = 1e-4
    recenter_every: int = 50
    seed: int = 0
    init: str = "gaussian-bump"
    init_path: str | None = None

    def __post_init__(self) -> None:
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if not self.step0 > 0:
            raise ValueError("step0 must be positive")
        if not 0.0 < self.armijo_factor < 1.0:
            raise ValueError("armijo_factor must lie in (0, 1)")
        if not 0.0 < self.armijo_decrease < 1.0:
            raise ValueError("armijo_decrease must lie in (0, 1)")
        if self.recenter_every < 0:
            raise ValueError("recenter_every must be nonnegative (0 disables)")
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
    recenters_applied: int
    converged: bool
    spec_hash: str
    potential_hash: str
    grid_hash: str
    field_norm_e_sq: float
    threads: int = 1
    failure: str | None = None


@dataclass
class MuSweep:
    """Energies across a mu schedule, with the compactness threshold."""

    mu_values: list[float]
    energies: list[float]
    threshold: float | None
    mu0_estimate: float | None
    converged: list[bool]
    reports: list[SolveReport] = field(repr=False, default_factory=list)


@dataclass(frozen=True)
class ComparisonReport:
    """Ground-level comparison between a periodic and an asymptotic run."""

    c_periodic: float
    c_asym: float
    gap: float
    margin: float
    passed: bool


def hash_grid(grid: Grid) -> str:
    s = grid.spec
    payload = f"{s.dim}|{s.half_width!r}|{s.points_per_dim}|{s.boundary}|{s.laplacian_mode}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def hash_spec(spec: ProblemSpec) -> str:
    payload = f"{spec.dim}|{spec.p!r}|{spec.q!r}|{spec.mu!r}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def hash_potentials(ps: PotentialSet) -> str:
    h = hashlib.sha256()
    for arr in (ps.v1, ps.v2, ps.lam):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(ps.delta).encode())
    return h.hexdigest()[:16]


def initial_pair(grid: Grid, opts: SolveOptions, init_field: FieldPair | None = None) -> FieldPair:
    """Starting pair per the configured init mode."""
    if init_field is not None:
        grid.check_conforms(init_field.u)
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


def _project(fp: FieldPair, inv: PairInvariants, spec: ProblemSpec):
    """Scale onto the manifold, reusing the ray scalars."""
    diag = fibering_scale_from_invariants(inv, spec)
    t = diag.t_mu
    inv_t = PairInvariants(
        t * t * inv.quad,
        t * t * inv.coupling,
        t**spec.p * inv.pnorm_mu,
        t**spec.q * inv.qnorm,
    )
    return fp.scaled(t), inv_t, diag.g_at_t


def _smooth_direction(g_field: FieldPair, ps: PotentialSet, grid: Grid) -> FieldPair:
    # approximate inverse of the quadratic operator, diagonal in Fourier
    # space; used only to finish off stiff gradient modes once energy
    # differences reach the rounding floor
    shift = 1.0 + 0.5 * float(np.mean(ps.v1) + np.mean(ps.v2))
    denom = shift - grid._lap_multiplier
    axes = tuple(range(grid.spec.dim))

    def smooth(f):
        return np.fft.irfftn(np.fft.rfftn(f, axes=axes) / denom, s=grid.shape, axes=axes)

    return _with_laplacians(smooth(g_field.u), smooth(g_field.v), grid)


def _with_laplacians(u: np.ndarray, v: np.ndarray, grid: Grid) -> FieldPair:
    return FieldPair(u, v, grid, (apply_laplacian(u, grid), apply_laplacian(v, grid)))


def _trial(fp: FieldPair, s: float, direction: FieldPair, ps: PotentialSet, spec: ProblemSpec):
    # project fp - s * direction; the Laplacian is linear, so the trial
    # point's follows from the two carried ones
    lap = (fp.lap[0] - s * direction.lap[0], fp.lap[1] - s * direction.lap[1])
    cand = FieldPair(fp.u - s * direction.u, fp.v - s * direction.v, fp.grid, lap)
    inv = pair_invariants(cand, ps, spec, fp.grid)
    if not np.all(np.isfinite([inv.quad, inv.coupling, inv.pnorm_mu, inv.qnorm])):
        raise NonFiniteEnergyError("trial invariants overflow")
    return _project(cand, inv, spec)


def _recenter_shift(fp: FieldPair, grid: Grid) -> np.ndarray | None:
    density = fp.u * fp.u + fp.v * fp.v
    idx = np.unravel_index(int(np.argmax(density)), grid.shape)
    peak = np.array([grid.axis_coords[i] for i in idx])
    shift = np.round(peak).astype(int)
    if not np.any(shift):
        return None
    return shift


def _failed_report(
    fp: FieldPair, ps: PotentialSet, spec: ProblemSpec, grid: Grid, msg: str
) -> SolveReport:
    inv = pair_invariants(fp, ps, spec, grid)
    e0 = inv.energy_at(1.0, spec)
    gn = pair_norm_l2(energy_gradient(fp, ps, spec, grid), grid)
    return SolveReport(
        field=fp,
        energy=float(e0),
        grad_norm=gn,
        iterations=0,
        energy_trace=[float(e0)],
        grad_trace=[gn],
        recenters_applied=0,
        converged=False,
        spec_hash=hash_spec(spec),
        potential_hash=hash_potentials(ps),
        grid_hash=hash_grid(grid),
        field_norm_e_sq=float(inv.norm_e_sq),
        failure=msg,
    )


def minimize_ground_state(
    ps: PotentialSet,
    spec: ProblemSpec,
    grid: Grid,
    opts: SolveOptions | None = None,
    init_field: FieldPair | None = None,
) -> SolveReport:
    """Minimize the energy over the discrete Nehari manifold.

    Deterministic for fixed (seed, grid, potentials, spec, options); the
    recorded energy trace is non-increasing by construction, and the
    converged flag reports honestly whether the gradient tolerance was met;
    otherwise ``failure`` is "stagnated" (line search gave up) or "budget".
    States carry their Laplacians, so an iteration transforms only the new gradient.
    """
    opts = opts or SolveOptions()
    if spec.dim != grid.spec.dim:
        raise GridMismatchError(
            f"problem dim {spec.dim} does not match grid dim {grid.spec.dim}"
        )
    ps.check_grid(grid)

    start = initial_pair(grid, opts, init_field)
    fp0 = _with_laplacians(start.u, start.v, grid)
    try:
        inv0 = pair_invariants(fp0, ps, spec, grid)
        fp, inv, e_cur = _project(fp0, inv0, spec)
    except _PROJECTION_ERRORS as exc:
        return _failed_report(start, ps, spec, grid, f"initial projection failed: {exc}")
    if not np.isfinite(e_cur):
        raise NonFiniteEnergyError("initial projected energy is not finite")

    grad = energy_gradient(fp, ps, spec, grid)
    gnorm = pair_norm_l2(grad, grid)
    energy_trace = [float(e_cur)]
    grad_trace = [gnorm]
    recenters = 0
    iterations = 0
    stagnated = False
    step = opts.step0
    bb_flip = False
    can_recenter = (
        opts.recenter_every > 0
        and grid.is_periodic
        and ps.periodic_flag
        and grid.nodes_per_unit() is not None
    )

    for k in range(opts.max_iters):
        if gnorm <= opts.grad_tol:
            break

        # backtracked step along the negative gradient, then re-project
        grad = _with_laplacians(grad.u, grad.v, grid)
        gnorm_sq = gnorm * gnorm
        s = step
        accepted = False
        for _ in range(60):
            try:
                cand_p, inv_p, e_new = _trial(fp, s, grad, ps, spec)
            except (*_PROJECTION_ERRORS, NonFiniteEnergyError):
                s *= opts.armijo_factor
                continue
            if np.isfinite(e_new) and (
                e_new <= e_cur - opts.armijo_decrease * s * gnorm_sq
                # at the rounding floor the model decrease is below one ulp
                # of the energy; accept any non-increase there
                or (e_new <= e_cur and s * gnorm_sq <= 1e-13 * max(abs(e_cur), 1.0))
            ):
                accepted = True
                break
            s *= opts.armijo_factor
        if not accepted:
            stagnated = True
            break
        iterations = k + 1

        recentered = False
        if can_recenter and (k + 1) % opts.recenter_every == 0:
            shift = _recenter_shift(cand_p, grid)
            if shift is not None:
                moved = _with_laplacians(
                    translate_lattice(cand_p.u, shift, grid),
                    translate_lattice(cand_p.v, shift, grid),
                    grid,
                )
                inv_m = pair_invariants(moved, ps, spec, grid)
                try:
                    moved_p, inv_mp, e_m = _project(moved, inv_m, spec)
                except _PROJECTION_ERRORS:
                    e_m = np.inf
                # lattice shifts preserve the energy exactly for periodic
                # potentials; guard against last-ulp regressions anyway
                if e_m <= e_new:
                    cand_p, inv_p, e_new = moved_p, inv_mp, e_m
                    recentered = True
                    recenters += 1

        grad_new = energy_gradient(cand_p, ps, spec, grid)

        if recentered:
            step = opts.step0
        else:
            # alternating Barzilai-Borwein trial step for the next iteration
            du = cand_p.u - fp.u
            dv = cand_p.v - fp.v
            dgu = grad_new.u - grad.u
            dgv = grad_new.v - grad.v
            bb_flip = not bb_flip
            if bb_flip:
                num = integrate(du * du + dv * dv, grid)
                den = integrate(du * dgu + dv * dgv, grid)
            else:
                num = integrate(du * dgu + dv * dgv, grid)
                den = integrate(dgu * dgu + dgv * dgv, grid)
            if np.isfinite(den) and den > 0.0 and np.isfinite(num) and num > 0.0:
                step = float(np.clip(num / den, 1e-12, 1e10))
            else:
                step = min(s * 2.0, opts.step0)

        fp, inv, e_cur = cand_p, inv_p, e_new
        grad, gnorm = grad_new, pair_norm_l2(grad_new, grid)
        energy_trace.append(float(e_cur))
        grad_trace.append(gnorm)

    if stagnated and gnorm > opts.grad_tol and grid.spec.laplacian_mode == "spectral":
        # backtracking died at the rounding floor of the energy; finish the
        # remaining stiff gradient modes with preconditioned steps, driven
        # by gradient decrease since energy differences there are sub-ulp
        noise_band = 32.0 * np.finfo(float).eps * max(abs(e_cur), 1.0)
        for _ in range(40):
            if gnorm <= opts.grad_tol:
                break
            direction = _smooth_direction(grad, ps, grid)
            s = 1.0
            improved = False
            for _ in range(8):
                try:
                    cand_p, inv_p, e_new = _trial(fp, s, direction, ps, spec)
                except (*_PROJECTION_ERRORS, NonFiniteEnergyError):
                    s *= 0.5
                    continue
                grad_new = energy_gradient(cand_p, ps, spec, grid)
                gn_new = pair_norm_l2(grad_new, grid)
                if np.isfinite(e_new) and e_new <= e_cur + noise_band and gn_new < gnorm:
                    improved = True
                    break
                s *= 0.5
            if not improved:
                break
            fp, inv, e_cur = cand_p, inv_p, e_new
            grad, gnorm = grad_new, gn_new
            if e_cur <= energy_trace[-1]:
                energy_trace.append(float(e_cur))
                grad_trace.append(gnorm)

    converged = opts.max_iters > 0 and gnorm <= opts.grad_tol
    return SolveReport(
        field=FieldPair(fp.u, fp.v, grid),
        energy=float(e_cur),
        grad_norm=gnorm,
        iterations=iterations,
        energy_trace=energy_trace,
        grad_trace=grad_trace,
        recenters_applied=recenters,
        converged=converged,
        spec_hash=hash_spec(spec),
        potential_hash=hash_potentials(ps),
        grid_hash=hash_grid(grid),
        field_norm_e_sq=float(inv.norm_e_sq),
        failure=None if converged else "stagnated" if stagnated else "budget",
    )


def nonneg_refine(
    report: SolveReport,
    ps: PotentialSet,
    spec: ProblemSpec,
    grid: Grid,
    opts: SolveOptions | None = None,
) -> SolveReport:
    """Replace the minimizer by its nonnegative representative and repolish.

    Projects (|u|, |v|) back onto the manifold; when the coupling is
    nonnegative this cannot raise the energy (the pointwise inequality
    survives nonnegative quadrature weights).  A short gradient run then
    polishes the result, and a final magnitude projection guarantees
    nodewise nonnegative output.
    """
    opts = opts or SolveOptions(max_iters=500)
    polish_opts = replace(opts, init="file")

    nn = report.field.magnitudes()
    inv_nn = pair_invariants(nn, ps, spec, grid)
    nn_p, _, _ = _project(nn, inv_nn, spec)

    polished = minimize_ground_state(ps, spec, grid, polish_opts, init_field=nn_p)

    final = polished.field.magnitudes()
    inv_f = pair_invariants(final, ps, spec, grid)
    final_p, inv_fp, e_final = _project(final, inv_f, spec)
    gn = pair_norm_l2(energy_gradient(final_p, ps, spec, grid), grid)

    return SolveReport(
        field=final_p,
        energy=float(e_final),
        grad_norm=gn,
        iterations=polished.iterations,
        energy_trace=polished.energy_trace + [float(e_final)],
        grad_trace=polished.grad_trace + [gn],
        recenters_applied=polished.recenters_applied,
        converged=polished.converged,
        spec_hash=polished.spec_hash,
        potential_hash=polished.potential_hash,
        grid_hash=polished.grid_hash,
        field_norm_e_sq=float(inv_fp.norm_e_sq),
        failure=polished.failure,
    )


# -- sharp Sobolev constant -------------------------------------------------


def aubin_talenti_bubble(grid: Grid, scale: float = 1.0) -> np.ndarray:
    """The radial Sobolev extremal (3 s^2)^(1/4) (s^2 + |x|^2)^(-1/2), d = 3.

    Every member of the dilation family solves -Lap v = v^5; scale controls
    the concentration.
    """
    if grid.spec.dim != 3:
        raise GridMismatchError("the Sobolev extremal profile is defined for d = 3")
    s2 = scale * scale
    return (3.0 * s2) ** 0.25 / np.sqrt(s2 + grid.radius_sq)


def sobolev_quotient(f: np.ndarray, grid: Grid) -> float:
    """Rayleigh quotient |grad f|_2^2 / |f|_6^2 under the grid quadrature."""
    if grid.spec.dim != 3:
        raise GridMismatchError("the Sobolev quotient is computed for d = 3")
    num = integrate(f * (-apply_laplacian(f, grid)), grid)
    den = integrate(f**6, grid) ** (1.0 / 3.0)
    if den <= 0.0:
        raise ZeroFieldError("Sobolev quotient of the zero field")
    return float(num / den)


def estimate_sobolev_constant(
    grid: Grid,
    *,
    search_radius: float = 0.01,
    max_iters: int = 400,
    slope_tol: float = 1e-8,
) -> float:
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
    below the sampled bubble's quotient.
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
    num = integrate(u * (-apply_laplacian(u, grid)), grid)
    den6 = integrate(u**6, grid)
    quot = num / den6 ** (1.0 / 3.0)

    precond = 1.0 - grid._lap_multiplier  # 1 + |k|^2
    axes = tuple(range(grid.spec.dim))
    step = 1.0

    def clip_to_ball(f):
        w = f - anchor
        wn = np.sqrt(max(integrate(w * w, grid), 0.0))
        if wn > cap:
            return anchor + w * (cap / wn)
        return f

    for _ in range(max_iters):
        den2 = den6 ** (1.0 / 3.0)
        raw = (2.0 / den2) * ((-apply_laplacian(u, grid)) - (num / den6) * u**5)

        partials = spectral_partials(u, grid)
        degenerate = [
            np.ones(grid.shape),
            0.5 * u + sum(c * d for c, d in zip(grid.coords, partials)),
        ]
        degenerate.extend(partials)
        basis: list[np.ndarray] = []
        for vec in degenerate:
            w = vec.copy()
            for b in basis:
                w -= integrate(w * b, grid) * b
            nrm = np.sqrt(max(integrate(w * w, grid), 0.0))
            if nrm > 1e-13:
                basis.append(w / nrm)

        projected = raw
        for b in basis:
            projected = projected - integrate(projected * b, grid) * b
        direction = np.fft.irfftn(
            np.fft.rfftn(projected, axes=axes) / precond, s=grid.shape, axes=axes
        )
        for b in basis:
            direction = direction - integrate(direction * b, grid) * b

        slope = integrate(direction * raw, grid)
        if slope <= slope_tol * max(1.0, quot):
            return float(quot)

        accepted = False
        s = step
        for _ in range(60):
            cand = clip_to_ball(u - s * direction)
            num_c = integrate(cand * (-apply_laplacian(cand, grid)), grid)
            den6_c = integrate(cand**6, grid)
            if den6_c > 0.0:
                quot_c = num_c / den6_c ** (1.0 / 3.0)
                if np.isfinite(quot_c) and quot_c < quot - 1e-12 * max(1.0, abs(quot)):
                    accepted = True
                    break
            s *= 0.5
        if not accepted:
            return float(quot)  # constrained stationarity: no feasible descent
        u, num, den6, quot = cand, num_c, den6_c, quot_c
        step = min(s * 2.0, 1e3)

    raise ConvergenceError(f"Sobolev polish still descending after {max_iters} iterations")


# -- mu sweep and energy comparison -----------------------------------------


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
    (S estimated on this grid unless supplied), and the first mu whose
    energy falls below it is reported.
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
        d = spec_template.dim
        threshold = s_const ** (d / 2.0) / d

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
            try:
                candidates.append(minimize_ground_state(ps, spec, grid, opts, init_field=init))
            except NonFiniteEnergyError as exc:
                candidates.append(
                    _failed_report(initial_pair(grid, opts), ps, spec, grid, str(exc))
                )
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
            if ok and np.isfinite(c) and c < threshold:
                mu0 = mu
                break

    return MuSweep(mus, energies, threshold, mu0, converged, reports)


def compare_energies(
    report_periodic: SolveReport, report_asym: SolveReport, margin: float = 0.0
) -> ComparisonReport:
    """Check that the asymptotic ground level sits strictly below the periodic one."""
    if report_periodic.grid_hash != report_asym.grid_hash:
        raise GridMismatchError("comparison requires reports from the same grid")
    if report_periodic.spec_hash != report_asym.spec_hash:
        raise GridMismatchError("comparison requires reports with identical exponents and mu")
    gap = report_periodic.energy - report_asym.energy
    passed = bool(gap > margin + 1e-9)
    return ComparisonReport(report_periodic.energy, report_asym.energy, gap, margin, passed)
