"""Analytic potential definitions, grid sampling, and assumption validators.

The coupled system carries two trapping potentials and one coupling
coefficient.  Everything the solver guarantees (coercivity of the quadratic
form, positivity of the energy level, the nonexistence certificate) rests
on pointwise structural assumptions relating the three: nonnegativity, the
coupling bound |lambda| <= delta sqrt(V1 V2), lattice periodicity or decay
toward a periodic reference, and sign conditions on radial derivatives.
This module samples the analytic definitions onto a grid and checks each
assumption nodewise, which is the strongest test the discretization admits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConvergenceError, GridMismatchError
from .grid import Grid, apply_laplacian, integrate, shifted_inverse

# parameter names of each built-in kind, in ``params`` order
KIND_PARAMS = {
    "constant": ("value",),
    "cosine-lattice": ("offset", "amplitude"),
    "gaussian": ("base", "amp", "sigma"),
    "radial-quadratic": ("coeff",),
}
KINDS = (*KIND_PARAMS, "callback")

VALIDATION_MODES = (
    "periodic",
    "periodic-strict",
    "asymptotic",
    "asymptotic-strict",
    "nonexistence",
)


@dataclass(frozen=True)
class PotentialDef:
    """One analytic scalar coefficient: a potential or the coupling.

    Built-in kinds know their radial derivative <grad f(x), x> in closed
    form; callback kinds fall back to 4th-order central differences along
    rays unless a radial callback is supplied.
    """

    kind: str
    params: tuple[float, ...] = ()
    fn: Callable[[tuple[np.ndarray, ...]], np.ndarray] | None = field(default=None, compare=False)
    radial_fn: Callable[[tuple[np.ndarray, ...]], np.ndarray] | None = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "callback" and self.fn is None:
            raise ValueError("callback potential requires fn")
        names = KIND_PARAMS.get(self.kind, ())
        if len(self.params) != len(names):
            raise ValueError(
                f"{self.kind} potential takes {len(names)} parameters {names}, "
                f"got {len(self.params)}"
            )
        if not all(np.isfinite(self.params)):
            raise ValueError(f"potential parameters must be finite, got {self.params}")
        if self.kind == "gaussian" and not self.params[2] > 0:
            raise ValueError(f"gaussian width must be positive, got {self.params[2]}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "PotentialDef":
        return cls("constant", (float(value),))

    @classmethod
    def cosine_lattice(cls, offset: float, amplitude: float) -> "PotentialDef":
        """offset + amplitude * sum_i cos(2 pi x_i); 1-periodic in each axis."""
        return cls("cosine-lattice", (float(offset), float(amplitude)))

    @classmethod
    def gaussian(cls, base: float, amp: float, sigma: float) -> "PotentialDef":
        """base + amp * exp(-|x|^2 / sigma^2)."""
        return cls("gaussian", (float(base), float(amp), float(sigma)))

    @classmethod
    def radial_quadratic(cls, coeff: float) -> "PotentialDef":
        """coeff * |x|^2."""
        return cls("radial-quadratic", (float(coeff),))

    @classmethod
    def from_callback(cls, fn, radial_fn=None) -> "PotentialDef":
        return cls("callback", (), fn, radial_fn)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, coords: tuple[np.ndarray, ...]) -> np.ndarray:
        if self.kind == "constant":
            return np.full_like(coords[0], self.params[0])
        if self.kind == "cosine-lattice":
            a, b = self.params
            return a + b * sum(np.cos(2.0 * np.pi * c) for c in coords)
        if self.kind == "gaussian":
            base, amp, sigma = self.params
            r2 = sum(c * c for c in coords)
            return base + amp * np.exp(-r2 / sigma**2)
        if self.kind == "radial-quadratic":
            return self.params[0] * sum(c * c for c in coords)
        return np.asarray(self.fn(coords), dtype=float)

    def radial_derivative(
        self, coords: tuple[np.ndarray, ...], spacing: float
    ) -> tuple[np.ndarray, str]:
        """<grad f(x), x> at every node, plus which path produced it."""
        if self.kind == "constant":
            return np.zeros_like(coords[0]), "analytic"
        if self.kind == "cosine-lattice":
            b = self.params[1]
            out = -2.0 * np.pi * b * sum(c * np.sin(2.0 * np.pi * c) for c in coords)
            return out, "analytic"
        if self.kind == "gaussian":
            _, amp, sigma = self.params
            r2 = sum(c * c for c in coords)
            return amp * np.exp(-r2 / sigma**2) * (-2.0 * r2 / sigma**2), "analytic"
        if self.kind == "radial-quadratic":
            return 2.0 * self.params[0] * sum(c * c for c in coords), "analytic"
        if self.radial_fn is not None:
            return np.asarray(self.radial_fn(coords), dtype=float), "analytic"
        return self._radial_fd(coords, spacing), "finite-difference"

    def _radial_fd(self, coords, spacing):
        # d/dt f((1+t) x) at t=0, 4th-order central, ray step |t x| = h/2
        r = np.sqrt(sum(c * c for c in coords))
        safe_r = np.where(r > 0, r, 1.0)
        s = 0.5 * spacing / safe_r

        def at(scale):
            return self.evaluate(tuple(c * scale for c in coords))

        num = -at(1 + 2 * s) + 8 * at(1 + s) - 8 * at(1 - s) + at(1 - 2 * s)
        out = num / (12.0 * s)
        return np.where(r > 0, out, 0.0)


@dataclass
class PotentialSet:
    """Sampled V1, V2, lambda plus their definitions and the coupling bound."""

    v1: np.ndarray
    v2: np.ndarray
    lam: np.ndarray
    defs: tuple[PotentialDef, PotentialDef, PotentialDef]
    delta: float
    grid: Grid = field(repr=False)

    def check_grid(self, grid: Grid) -> None:
        if self.grid is not grid and self.grid.spec != grid.spec:
            raise GridMismatchError("potential set was sampled on a different grid")

    @cached_property
    def radial(self) -> tuple[tuple[np.ndarray, str], ...]:
        """(<grad f, x> at every node, path) for V1, V2 and lambda.

        Sampled from the definitions on first read and kept; the arrays are
        shared by every reader, which must not modify them.
        """
        return tuple(d.radial_derivative(self.grid.coords, self.grid.spacing) for d in self.defs)


@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    worst_value: float
    worst_node: tuple[float, ...] | None = None
    note: str = ""


@dataclass
class ValidationReport:
    mode: str
    checks: list[AssumptionCheck]
    nu1: float | None = None
    nu2: float | None = None

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def find(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def rows(self) -> list[tuple]:
        """CSV rows: one per check, then nu1 and nu2 when they were estimated."""
        rows = [("assumption", "passed", "worst_value", "worst_node", "note")]
        rows += [(c.name, c.passed, c.worst_value, c.worst_node, c.note) for c in self.checks]
        if self.nu1 is not None:
            for name, nu in (("nu1", self.nu1), ("nu2", self.nu2)):
                rows.append((name, None, nu, None, "smallest Rayleigh quotient"))
        return rows


def sample_potentials(
    defs: tuple[PotentialDef, PotentialDef, PotentialDef],
    delta: float,
    grid: Grid,
) -> PotentialSet:
    """Evaluate the three definitions at every node.  No validation yet."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if len(defs) != 3:
        raise ValueError("expected exactly three potential definitions (V1, V2, lambda)")
    sampled = []
    for label, d in zip(("V1", "V2", "lambda"), defs):
        vals = d.evaluate(grid.coords)
        if vals.shape != grid.shape:
            raise GridMismatchError(f"{label} callback returned shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            bad = np.unravel_index(int(np.argmax(~np.isfinite(vals))), grid.shape)
            coord = _node_coord(grid, bad)
            raise ValueError(f"{label} is non-finite at node {coord}")
        sampled.append(vals)
    return PotentialSet(sampled[0], sampled[1], sampled[2], tuple(defs), float(delta), grid)


def _node_coord(grid: Grid, idx: tuple[int, ...]) -> tuple[float, ...]:
    return tuple(float(grid.axis_coords[i]) for i in idx)


def _worst(grid: Grid, violation: np.ndarray) -> tuple[float, tuple[float, ...]]:
    """Largest entry of a violation array and the node where it occurs."""
    flat = int(np.argmax(violation))
    idx = np.unravel_index(flat, grid.shape)
    return float(violation[idx]), _node_coord(grid, idx)


def _check_nonneg(name, f, grid) -> AssumptionCheck:
    worst, node = _worst(grid, -f)
    return AssumptionCheck(name, bool(worst <= 0.0), -worst, node)


def _check_coupling_bound(name, ps, grid, strict: bool) -> AssumptionCheck:
    bound = ps.delta * np.sqrt(np.maximum(ps.v1, 0.0) * np.maximum(ps.v2, 0.0))
    scale = max(1.0, float(np.max(np.abs(ps.lam))))
    excess = np.abs(ps.lam) - bound
    worst, node = _worst(grid, excess)
    ok = worst <= 1e-12 * scale
    note = f"bound delta*sqrt(V1 V2) with delta={ps.delta}"
    if strict:
        low, low_node = _worst(grid, -ps.lam)
        if low >= 0.0:  # some lambda <= 0: strict positivity violated (ties fail)
            return AssumptionCheck(name, False, -low, low_node, "lambda not strictly positive")
    return AssumptionCheck(name, bool(ok), worst, node, note)


def _check_periodicity(ps, grid) -> AssumptionCheck:
    npu = grid.nodes_per_unit()
    if npu is None:
        raise GridMismatchError(
            "periodic validation needs a grid resolving period 1: n/(2L) must be a whole number"
        )
    worst = 0.0
    worst_node: tuple[float, ...] | None = None
    for f in (ps.v1, ps.v2, ps.lam):
        scale = max(1.0, float(np.max(np.abs(f))))
        for ax in range(grid.spec.dim):
            diff = np.abs(f - np.roll(f, npu, axis=ax)) / scale
            w, node = _worst(grid, diff)
            if w > worst:
                worst, worst_node = w, node
    return AssumptionCheck("V1:periodicity", bool(worst <= 1e-9), worst, worst_node)


def _shell_mask(grid: Grid) -> np.ndarray:
    thresh = 0.8 * grid.spec.half_width
    mask = np.zeros(grid.shape, dtype=bool)
    for c in grid.coords:
        mask |= np.abs(c) >= thresh
    return mask


def _check_asymptotic(ps, ref, grid, tail_tol) -> list[AssumptionCheck]:
    checks = []
    # strict ordering V_i < V_{i,o}, lambda_o < lambda at every node; ties fail
    for name, f, fo in (("V4:V1<V1o", ps.v1, ref.v1), ("V4:V2<V2o", ps.v2, ref.v2)):
        worst, node = _worst(grid, f - fo)
        checks.append(AssumptionCheck(name, bool(worst < 0.0), worst, node))
    worst, node = _worst(grid, ref.lam - ps.lam)
    checks.append(AssumptionCheck("V4:lambda_o<lambda", bool(worst < 0.0), worst, node))
    # decay toward the periodic reference on the outer shell
    mask = _shell_mask(grid)
    gap = np.maximum.reduce(
        [np.abs(ref.v1 - ps.v1), np.abs(ref.v2 - ps.v2), np.abs(ps.lam - ref.lam)]
    )
    gap = np.where(mask, gap, 0.0)
    worst, node = _worst(grid, gap)
    checks.append(
        AssumptionCheck(
            "V4:tail-decay",
            bool(worst <= tail_tol),
            worst,
            node,
            f"max over |x|_inf >= 0.8 L, tolerance {tail_tol:g}",
        )
    )
    return checks


def _check_radial(ps, grid) -> list[AssumptionCheck]:
    checks = []
    scale_env = max(
        1.0, float(np.max(np.abs(ps.v1))), float(np.max(np.abs(ps.v2))), float(np.max(np.abs(ps.lam)))
    )
    tiny = 1e-12 * scale_env
    for name, (rad, path), f in zip(("V7:V1", "V7:V2"), ps.radial, (ps.v1, ps.v2)):
        worst, node = _worst(grid, -rad)
        nonneg_ok = worst <= tiny
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(f > tiny, rad / np.where(f > tiny, f, 1.0), 0.0)
        degenerate = (f <= tiny) & (rad > tiny)
        if np.any(degenerate):
            wv, wn = _worst(grid, np.where(degenerate, rad, -np.inf))
            checks.append(
                AssumptionCheck(name, False, wv, wn, f"<grad V,x> > 0 where V = 0 ({path})")
            )
            continue
        c_const = float(np.max(ratio))
        checks.append(
            AssumptionCheck(
                name,
                bool(nonneg_ok),
                -worst if not nonneg_ok else c_const,
                node,
                f"smallest admissible C = {c_const:.12g} ({path})",
            )
        )
    rad, path = ps.radial[2]
    worst, node = _worst(grid, rad)
    sign_ok = worst <= tiny
    lam_abs = np.abs(ps.lam)
    degenerate = (lam_abs <= tiny) & (np.abs(rad) > tiny)
    if np.any(degenerate):
        wv, wn = _worst(grid, np.where(degenerate, np.abs(rad), -np.inf))
        checks.append(
            AssumptionCheck("V8:lambda", False, wv, wn, f"<grad l,x> != 0 where lambda = 0 ({path})")
        )
        return checks
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(lam_abs > tiny, np.abs(rad) / np.where(lam_abs > tiny, lam_abs, 1.0), 0.0)
    c_const = float(np.max(ratio))
    checks.append(
        AssumptionCheck(
            "V8:lambda",
            bool(sign_ok),
            worst if not sign_ok else c_const,
            node,
            f"<grad lambda,x> <= 0; smallest admissible C = {c_const:.12g} ({path})",
        )
    )
    return checks


def validate_assumptions(
    ps: PotentialSet,
    mode: str,
    reference: PotentialSet | None = None,
    grid: Grid | None = None,
    *,
    tail_tol: float = 1e-2,
    compute_nu: bool = False,
) -> ValidationReport:
    """Nodewise verification of the structural assumptions for a given mode.

    Modes: "periodic" (periodicity, nonnegativity, coupling bound),
    "periodic-strict" (additionally lambda > 0 at every node),
    "asymptotic" (ordering below a periodic reference plus tail decay),
    "asymptotic-strict", and "nonexistence" (sign conditions on the radial
    derivatives, reporting the smallest admissible growth constants).
    Strict inequalities are checked strictly; ties fail with the offending
    node reported.
    """
    if mode not in VALIDATION_MODES:
        raise ValueError(f"unknown validation mode {mode!r}")
    grid = grid or ps.grid
    ps.check_grid(grid)
    checks: list[AssumptionCheck] = []
    nu1 = nu2 = None

    if mode in ("periodic", "periodic-strict"):
        prefix = "V2"
        checks.append(_check_periodicity(ps, grid))
        checks.append(_check_nonneg("V2:V1>=0", ps.v1, grid))
        checks.append(_check_nonneg("V2:V2>=0", ps.v2, grid))
        name = "V3':coupling" if mode == "periodic-strict" else "V3:coupling"
        checks.append(_check_coupling_bound(name, ps, grid, strict=mode == "periodic-strict"))
    elif mode in ("asymptotic", "asymptotic-strict"):
        prefix = "V5"
        if reference is None:
            raise ValueError("asymptotic validation requires a periodic reference set")
        reference.check_grid(grid)
        checks.append(_check_nonneg("V5:V1>=0", ps.v1, grid))
        checks.append(_check_nonneg("V5:V2>=0", ps.v2, grid))
        name = "V6':coupling" if mode == "asymptotic-strict" else "V6:coupling"
        checks.append(_check_coupling_bound(name, ps, grid, strict=mode == "asymptotic-strict"))
        checks.extend(_check_asymptotic(ps, reference, grid, tail_tol))
    else:  # nonexistence: the radial conditions take the place of nu
        prefix = None
        checks.append(_check_nonneg("V7:V1>=0", ps.v1, grid))
        checks.append(_check_nonneg("V7:V2>=0", ps.v2, grid))
        checks.append(_check_coupling_bound("V6:coupling", ps, grid, strict=False))
        checks.extend(_check_radial(ps, grid))
    if compute_nu and prefix is not None:
        nu1, nu2 = estimate_nu(ps, grid)
        checks.append(AssumptionCheck(f"{prefix}:nu1>0", bool(nu1 > 1e-8), nu1))
        checks.append(AssumptionCheck(f"{prefix}:nu2>0", bool(nu2 > 1e-8), nu2))

    return ValidationReport(mode, checks, nu1, nu2)


def _rayleigh(x: np.ndarray, v: np.ndarray, grid: Grid) -> float:
    num = integrate(x * (-apply_laplacian(x, grid)) + v * x * x, grid)
    den = integrate(x * x, grid)
    return num / den


def estimate_nu(ps: PotentialSet, grid: Grid | None = None) -> tuple[float, float]:
    """Smallest Rayleigh quotient of -Laplacian + V_i for i = 1, 2.

    Shifted inverse power iteration; inner solves by conjugate gradients
    (relative tolerance 1e-12) with an FFT preconditioner on periodic
    spectral grids.  Converges when successive eigenvalue estimates differ
    by at most 1e-8, and raises :class:`ConvergenceError` after 500
    iterations.
    """
    grid = grid or ps.grid
    ps.check_grid(grid)
    return _smallest_eig(ps.v1, grid), _smallest_eig(ps.v2, grid)


def _smallest_eig(v: np.ndarray, grid: Grid) -> float:
    # scipy loads here, so that importing csgs does not pay for it
    from scipy.sparse.linalg import LinearOperator, cg

    n = grid.num_nodes
    shift = 1.0  # operator is PSD for validated V, so A + shift is definite

    def matvec(x):
        f = x.reshape(grid.shape)
        return ((-apply_laplacian(f, grid)) + (v + shift) * f).ravel()

    op = LinearOperator((n, n), matvec=matvec, dtype=float)

    precond = None
    if grid.spec.laplacian_mode == "spectral":
        diag_shift = float(np.mean(v)) + shift

        def psolve(x):
            return shifted_inverse(x.reshape(grid.shape), diag_shift, grid).ravel()

        precond = LinearOperator((n, n), matvec=psolve, dtype=float)

    x = np.ones(grid.shape)
    x /= np.sqrt(integrate(x * x, grid))
    nu_prev = _rayleigh(x, v, grid)
    for _ in range(500):
        y, info = cg(op, x.ravel(), x0=x.ravel(), rtol=1e-12, atol=0.0, M=precond,
                     maxiter=10 * n)
        if info != 0:
            raise ConvergenceError(f"inner CG solve failed (info={info})")
        x = y.reshape(grid.shape)
        x /= np.sqrt(integrate(x * x, grid))
        nu = _rayleigh(x, v, grid)
        if abs(nu - nu_prev) <= 1e-8:
            return float(nu)
        nu_prev = nu
    raise ConvergenceError("inverse power iteration did not reach tol=1e-8 in 500 iterations")
