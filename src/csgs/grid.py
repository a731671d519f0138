"""Truncated periodic/Dirichlet box: quadrature, Laplacian, lattice shifts.

The computational domain is the box [-L, L)^d sampled on a uniform tensor
grid with n nodes per axis, node k sitting at -L + k*h, h = 2L/n.  All
integrals over R^d are replaced by quadrature on this box, so every
quantity downstream (energies, norms, manifold constraints) is a statement
about the truncated problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridMismatchError

BOUNDARIES = ("periodic", "dirichlet")
LAPLACIAN_MODES = ("spectral", "fd2")


@dataclass(frozen=True)
class GridSpec:
    """Shape of the computational box.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1, 2 or 3.
    half_width : float
        L > 0; the box is [-L, L)^d.
    points_per_dim : int
        Even node count n per axis (n >= 4).
    boundary : str
        "periodic" (default) or "dirichlet".
    laplacian_mode : str
        "spectral" (periodic only) or "fd2".
    """

    dim: int
    half_width: float
    points_per_dim: int
    boundary: str = "periodic"
    laplacian_mode: str = "spectral"

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not self.half_width > 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        n = self.points_per_dim
        if n % 2 != 0:
            raise ValueError(f"n must be even, got {n}")
        if n < 4:
            raise ValueError(f"n must be at least 4, got {n}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.laplacian_mode not in LAPLACIAN_MODES:
            raise ValueError(f"unknown laplacian_mode {self.laplacian_mode!r}")
        if self.laplacian_mode == "spectral" and self.boundary != "periodic":
            raise ValueError("spectral Laplacian requires periodic boundary")


class Grid:
    """Sampled box: node coordinates, quadrature weights, Laplacian machinery.

    Constructed through :func:`build_grid`.  Instances are immutable in
    practice and safe to share between threads; the cached FFT multipliers
    and coordinate meshes are computed once on first use.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.spacing = 2.0 * spec.half_width / spec.points_per_dim
        self.shape = (spec.points_per_dim,) * spec.dim
        self.num_nodes = spec.points_per_dim**spec.dim
        # nodes at -L + k h per axis
        self.axis_coords = -spec.half_width + self.spacing * np.arange(
            spec.points_per_dim, dtype=float
        )
        if spec.boundary == "periodic":
            axis_w = np.full(spec.points_per_dim, self.spacing)
        else:
            # trapezoidal rule on the sampled nodes
            axis_w = np.full(spec.points_per_dim, self.spacing)
            axis_w[0] = axis_w[-1] = 0.5 * self.spacing
        self.axis_weights = axis_w

    # -- lazy geometry ---------------------------------------------------

    @cached_property
    def weights(self) -> np.ndarray:
        """Tensor-product quadrature weights, one per node."""
        w = self.axis_weights
        out = w
        for _ in range(self.spec.dim - 1):
            out = np.multiply.outer(out, w)
        return out

    @cached_property
    def coords(self) -> tuple[np.ndarray, ...]:
        """Node coordinates as d meshgrid arrays of shape ``self.shape``."""
        axes = (self.axis_coords,) * self.spec.dim
        return tuple(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def radius_sq(self) -> np.ndarray:
        """|x|^2 at every node."""
        return sum(c * c for c in self.coords)

    @cached_property
    def _rfft_wavenumbers(self) -> tuple[np.ndarray, ...]:
        # angular wavenumbers 2 pi m / (2L), broadcast-shaped for rfftn output
        n = self.spec.points_per_dim
        d = self.spec.dim
        k_full = 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing)
        k_half = k_full[: n // 2 + 1].copy()
        k_half[-1] = abs(k_half[-1])
        out = []
        for ax in range(d):
            k = k_half if ax == d - 1 else k_full
            shape = [1] * d
            shape[ax] = len(k)
            out.append(k.reshape(shape))
        return tuple(out)

    @cached_property
    def _lap_multiplier(self) -> np.ndarray:
        return -sum(k * k for k in np.broadcast_arrays(*self._rfft_wavenumbers))

    # -- helpers ---------------------------------------------------------

    @property
    def is_periodic(self) -> bool:
        return self.spec.boundary == "periodic"

    def nodes_per_unit(self) -> int | None:
        """Nodes per unit length if the grid resolves the integer lattice."""
        npu = self.spec.points_per_dim / (2.0 * self.spec.half_width)
        r = round(npu)
        if r >= 1 and abs(npu - r) < 1e-12:
            return r
        return None

    def check_conforms(self, f: np.ndarray) -> None:
        if f.shape != self.shape:
            raise GridMismatchError(
                f"field shape {f.shape} does not match grid shape {self.shape}"
            )


def build_grid(spec: GridSpec) -> Grid:
    """Materialize the grid for a validated spec."""
    return Grid(spec)


def integrate(f: np.ndarray, grid: Grid) -> float:
    """Quadrature of a grid function: sum of weights * values.

    Exact for constants on periodic grids.  Summation order follows the
    array layout; see :func:`lp_integral` for the order-canonical variant
    used for translation-invariant norms.
    """
    grid.check_conforms(f)
    if grid.is_periodic:
        return float(grid.spacing**grid.spec.dim * np.sum(f))
    return float(np.sum(f * grid.weights))


def _whole_power(a: np.ndarray, k: int) -> np.ndarray:
    """a**k for a whole k >= 1 by repeated squaring instead of pow."""
    if k == 1:
        return a
    half = _whole_power(a * a, k // 2)
    return half * a if k % 2 else half


def lp_integral(f: np.ndarray, p: float, grid: Grid) -> float:
    """Quadrature of |f|^p with a summation order independent of node layout.

    The nonnegative addends are sorted before pairwise summation, so any
    relabeling of nodes that preserves the value multiset (in particular
    lattice translations on periodic grids) yields the bit-identical result.
    Whole exponents are raised by multiplication, others by ``pow``.
    """
    grid.check_conforms(f)
    with np.errstate(over="ignore"):
        vals = np.abs(f, dtype=float).ravel()
        vals = _whole_power(vals, int(p)) if float(p).is_integer() and p >= 1 else vals**p
        if grid.is_periodic:
            return float(grid.spacing**grid.spec.dim * np.sum(np.sort(vals)))
        vals = vals * grid.weights.ravel()
        return float(np.sum(np.sort(vals)))


def apply_laplacian(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Laplacian of a grid function (spectral or second-order stencil).

    Spectral mode multiplies Fourier coefficients by -|k|^2; fd2 applies
    the standard 3-point stencil per axis, with wraparound neighbors on
    periodic grids and zero ghost values outside Dirichlet grids.
    """
    grid.check_conforms(f)
    if grid.spec.laplacian_mode == "spectral":
        axes = tuple(range(grid.spec.dim))
        fh = np.fft.rfftn(f, axes=axes)
        fh *= grid._lap_multiplier
        return np.fft.irfftn(fh, s=grid.shape, axes=axes)
    h2 = grid.spacing**2
    out = -2.0 * grid.spec.dim * f
    for ax in range(grid.spec.dim):
        if grid.is_periodic:
            out = out + np.roll(f, 1, axis=ax) + np.roll(f, -1, axis=ax)
        else:
            up = np.zeros_like(f)
            dn = np.zeros_like(f)
            src = [slice(None)] * grid.spec.dim
            dst = [slice(None)] * grid.spec.dim
            src[ax], dst[ax] = slice(1, None), slice(None, -1)
            up[tuple(dst)] = f[tuple(src)]
            src[ax], dst[ax] = slice(None, -1), slice(1, None)
            dn[tuple(dst)] = f[tuple(src)]
            out = out + up + dn
    return out / h2


def spectral_partials(f: np.ndarray, grid: Grid) -> tuple[np.ndarray, ...]:
    """All first partial derivatives of f by Fourier differentiation."""
    grid.check_conforms(f)
    if not grid.is_periodic:
        raise GridMismatchError("spectral differentiation requires a periodic grid")
    axes = tuple(range(grid.spec.dim))
    fh = np.fft.rfftn(f, axes=axes)
    nyquist = np.pi / grid.spacing
    out = []
    for k in grid._rfft_wavenumbers:
        kd = np.where(np.abs(k) >= nyquist * (1.0 - 1e-12), 0.0, k)
        out.append(np.fft.irfftn(1j * kd * fh, s=grid.shape, axes=axes))
    return tuple(out)


def translate_lattice(f: np.ndarray, shift: tuple[int, ...] | np.ndarray, grid: Grid) -> np.ndarray:
    """Circularly shift f by an integer lattice vector: result(x) = f(x + z).

    Requires a periodic grid whose node count per unit length is a whole
    number, so one lattice step is a whole number of nodes and the shift is
    a pure relabeling of samples.
    """
    grid.check_conforms(f)
    if not grid.is_periodic:
        raise GridMismatchError("lattice translation requires a periodic grid")
    npu = grid.nodes_per_unit()
    if npu is None:
        raise GridMismatchError(
            "grid does not resolve the integer lattice: n/(2L) is not a whole number"
        )
    shift = np.asarray(shift)
    if shift.shape != (grid.spec.dim,):
        raise GridMismatchError(
            f"shift must have {grid.spec.dim} components, got shape {shift.shape}"
        )
    if not np.all(shift == np.round(shift)):
        raise GridMismatchError("shift components must be integers")
    out = f
    for ax, z in enumerate(shift):
        s = int(z) * npu
        if s % grid.spec.points_per_dim != 0:
            out = np.roll(out, -s, axis=ax)
    return out.copy() if out is f else out


@dataclass
class FieldPair:
    """The unknown (u, v) of the coupled system, sampled on a grid.

    ``lap`` optionally carries (Lap u, Lap v) for reuse; only ``scaled`` keeps it.
    """

    u: np.ndarray
    v: np.ndarray
    grid: Grid = field(repr=False)
    lap: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.grid.check_conforms(self.u)
        self.grid.check_conforms(self.v)

    def validate_finite(self) -> None:
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise ValueError("field pair contains non-finite values")

    def scaled(self, t: float) -> "FieldPair":
        lap = None if self.lap is None else (t * self.lap[0], t * self.lap[1])
        return FieldPair(t * self.u, t * self.v, self.grid, lap)

    def magnitudes(self) -> "FieldPair":
        return FieldPair(np.abs(self.u), np.abs(self.v), self.grid)

    def copy(self) -> "FieldPair":
        return FieldPair(self.u.copy(), self.v.copy(), self.grid)

    def is_zero(self) -> bool:
        return not (np.any(self.u) or np.any(self.v))
