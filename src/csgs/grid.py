"""Truncated periodic/Dirichlet box: quadrature, Laplacian, lattice shifts.

The computational domain is the box [-L, L)^d sampled on a uniform tensor
grid with n nodes per axis, node k sitting at -L + k*h, h = 2L/n.  On
Dirichlet grids the field vanishes on zero ghost nodes, the walls, at
-L - h and L.  All integrals over R^d are replaced by one quadrature rule
on every box, weight h^d at every node, so every quantity downstream
(energies, norms, manifold constraints) is a statement about the truncated
problem, and the fd2 Laplacian is symmetric under that rule on either
boundary.
"""

from __future__ import annotations

import math
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
        "periodic" (default) or "dirichlet".  Dirichlet nodes stay at
        -L + k h; their zero ghosts, the walls, sit at -L - h and L.  Every
        node weighs h^d in quadrature on either boundary.
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
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        n = self.points_per_dim
        if n % 2 != 0:
            raise ValueError(f"n must be even, got {n}")
        if n < 4:
            raise ValueError(f"n must be at least 4, got {n}")
        # h^d as a product (pow raises where a product rounds to inf); if normal and finite, so is h
        volume = math.prod((2.0 * self.half_width / n,) * self.dim)
        if not np.finfo(float).tiny <= volume <= np.finfo(float).max:
            raise ValueError(f"cell volume (2L/n)^d = {volume:g} is not a normal finite double")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.laplacian_mode not in LAPLACIAN_MODES:
            raise ValueError(f"unknown laplacian_mode {self.laplacian_mode!r}")
        if self.laplacian_mode == "spectral" and self.boundary != "periodic":
            raise ValueError("spectral Laplacian requires periodic boundary")


class Grid:
    """Sampled box: node coordinates, spacing, Laplacian machinery.

    Constructed through :func:`build_grid`.  Instances are immutable in
    practice and safe to share between threads; the cached FFT multipliers
    and coordinate meshes are computed once on first use.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.spacing = 2.0 * spec.half_width / spec.points_per_dim
        self.shape = (spec.points_per_dim,) * spec.dim
        self.num_nodes = spec.points_per_dim**spec.dim
        self.cell_volume = self.spacing**spec.dim  # the quadrature weight h^d
        # nodes at -L + k h per axis
        self.axis_coords = -spec.half_width + self.spacing * np.arange(
            spec.points_per_dim, dtype=float
        )

    # -- lazy geometry ---------------------------------------------------

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
        n, d = self.spec.points_per_dim, self.spec.dim
        k_full = 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing)
        k_half = k_full[: n // 2 + 1].copy()
        k_half[-1] = abs(k_half[-1])
        axes = [k_full] * (d - 1) + [k_half]
        return tuple(k.reshape([-1 if a == ax else 1 for a in range(d)])
                     for ax, k in enumerate(axes))

    @cached_property
    def _lap_multiplier(self) -> np.ndarray:
        return -sum(k * k for k in np.broadcast_arrays(*self._rfft_wavenumbers))

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        """The Laplacian's own eigenvalues: ``_lap_multiplier`` if spectral, else the stencil's, sum
        over axes of (2 cos t - 2)/h^2, t = k h if periodic, pi j/(n+1), j = 1..n (DST-I) if not."""
        if self.spec.laplacian_mode == "spectral":
            return self._lap_multiplier
        n, h = self.spec.points_per_dim, self.spacing
        if self.is_periodic:
            thetas = [k * h for k in self._rfft_wavenumbers]
        else:
            modes = np.pi * np.arange(1, n + 1) / (n + 1)
            thetas = np.meshgrid(*(modes,) * self.spec.dim, indexing="ij", sparse=True)
        return sum((2.0 * np.cos(t) - 2.0) / h**2 for t in thetas)

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

    def check_same(self, other: "Grid") -> None:
        """Raise unless ``other`` is this grid or was built from an equal spec."""
        if other is not self and other.spec != self.spec:
            raise GridMismatchError(f"grid {other.spec} does not match grid {self.spec}")

    def check_conforms(self, f: np.ndarray) -> None:
        if f.shape != self.shape:
            raise GridMismatchError(
                f"field shape {f.shape} does not match grid shape {self.shape}"
            )


def build_grid(spec: GridSpec) -> Grid:
    """Materialize the grid for a validated spec."""
    return Grid(spec)


def integrate(f: np.ndarray, grid: Grid) -> float:
    """Quadrature of a grid function: h^d times the sum of the values.

    Summation order follows the array layout; see :func:`lp_integral` for
    the order-canonical variant used for translation-invariant norms.
    """
    grid.check_conforms(f)
    return _quadrature(f, grid)


def _quadrature(f: np.ndarray, grid: Grid) -> float:
    """:func:`integrate` without the shape check."""
    return float(grid.cell_volume * np.add.reduce(f, None))


def _whole_power(a: np.ndarray, k: int, spare: np.ndarray | None = None) -> np.ndarray:
    """a**k written over a, for a whole k >= 1, by repeated squaring instead of pow; the first
    odd level squares into ``spare`` (a new array without one), because it still needs a."""
    if k == 1:
        return a
    odd = k % 2
    half = _whole_power(np.multiply(a, a, out=spare if odd else a), k // 2, None if odd else spare)
    return np.multiply(half, a, out=a) if odd else half


def lp_integral(f: np.ndarray, p: float, grid: Grid) -> float:
    """Quadrature of |f|^p with a summation order independent of node layout.

    The nonnegative addends are sorted before pairwise summation, so any
    relabeling of nodes that preserves the value multiset (in particular
    lattice translations on periodic grids) yields the bit-identical result; only this
    function sorts, the descent's sums run in array order (:func:`_lp_sum`).
    Whole exponents are raised by multiplication, others by ``pow``.
    """
    grid.check_conforms(f)
    work = np.empty(grid.shape)
    with np.errstate(over="ignore"):
        _lp_sum(f, p, grid, work)
    work.reshape(-1).sort()
    return _quadrature(work, grid)


def _lp_sum(f: np.ndarray, p: float, grid: Grid, work: np.ndarray, spare=None) -> float:
    """|f|^p into ``work`` (``spare`` for :func:`_whole_power`) and its quadrature in array order,
    without :func:`lp_integral`'s check, guard and sort, so a lattice shift can move its bits."""
    vals = np.abs(f, work).reshape(-1)
    if float(p).is_integer() and p >= 1:
        _whole_power(vals, int(p), None if spare is None else spare.reshape(-1))
    else:
        vals **= p
    return _quadrature(vals, grid)


def _forward(f: np.ndarray, grid: Grid) -> np.ndarray:
    """``np.fft.rfftn`` over the trailing d axes of a field or a stack of fields, one axis at a
    time as rfftn does it: one ``rfft`` over the whole stack, then each field's ``fft`` passes in
    place, as they run for a field alone."""
    d = grid.spec.dim
    fh = np.fft.rfft(f, axis=-1)
    for g in fh if fh.ndim > d else (fh,):
        for ax in range(d - 2, -1, -1):
            np.fft.fft(g, axis=ax, out=g)
    return fh


def _inverse(fh: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """``np.fft.irfftn`` as :func:`_forward` runs ``rfftn``: each field's ``ifft`` passes overwrite
    ``fh``, then one ``irfft`` over the whole stack, into ``out`` when given."""
    d = grid.spec.dim
    for g in fh if fh.ndim > d else (fh,):
        for ax in range(d - 1):
            np.fft.ifft(g, axis=ax, out=g)
    return np.fft.irfft(fh, grid.spec.points_per_dim, axis=-1, out=out)


def _check_stack(f: np.ndarray, grid: Grid) -> None:
    if f.shape[-grid.spec.dim :] != grid.shape or f.ndim > grid.spec.dim + 1:
        raise GridMismatchError(f"field shape {f.shape} is neither grid shape {grid.shape} "
                                "nor a stack of it")


def apply_laplacian(f: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Laplacian of a grid function or of a stack of them (spectral or second-order stencil).

    ``f`` is one field or a stack of fields along one leading axis; each field is transformed
    as it would be alone, bit for bit.  The result has f's shape and is written into ``out``
    when it is given.  Spectral mode multiplies Fourier coefficients by -|k|^2; fd2 applies
    the standard 3-point stencil per axis to f padded by one node, with
    wraparound neighbors on periodic grids and zero walls on Dirichlet grids.
    """
    d = grid.spec.dim
    _check_stack(f, grid)
    if out is not None and out.shape != f.shape:
        raise GridMismatchError(f"out shape {out.shape} does not match field shape {f.shape}")
    if grid.spec.laplacian_mode == "spectral":
        fh = _forward(f, grid)
        fh *= grid._lap_multiplier
        return _inverse(fh, grid, out)
    # pad the trailing d axes only; a scalar width keeps np.pad's faster path for one field
    width = 1 if f.ndim == d else [(0, 0)] + [(1, 1)] * d
    padded = np.pad(f, width, mode="wrap" if grid.is_periodic else "constant")
    out = np.multiply(f, -2.0 * d, out=out)
    for ax in range(d):
        lo = [slice(1, -1)] * d
        hi = [slice(1, -1)] * d
        lo[ax], hi[ax] = slice(None, -2), slice(2, None)
        out += padded[(..., *lo)]
        out += padded[(..., *hi)]
    out /= grid.spacing**2
    return out


def shifted_inverse(f: np.ndarray, shift: float, grid: Grid) -> np.ndarray:
    """(shift - Lap)^-1 f, exact for the grid's own Laplacian, of one field or a stack of them.

    Each field of a stack is inverted as it would be alone, bit for bit.  Periodic grids divide
    Fourier coefficients by shift + |k|^2 (spectral) or shift minus the stencil's eigenvalues
    (fd2), Dirichlet grids DST-I coefficients (``scipy.fft``) by shift minus the zero-wall
    stencil's."""
    _check_stack(f, grid)
    if grid.is_periodic:
        return _inverse(_forward(f, grid) / (shift - grid._eigenvalues), grid)
    from scipy.fft import dstn, idstn

    axes = tuple(range(f.ndim - grid.spec.dim, f.ndim))
    return idstn(dstn(f, type=1, axes=axes) / (shift - grid._eigenvalues), type=1, axes=axes)


def spectral_partials(f: np.ndarray, grid: Grid) -> tuple[np.ndarray, ...]:
    """All first partial derivatives of f by Fourier differentiation."""
    grid.check_conforms(f)
    if not grid.is_periodic:
        raise GridMismatchError("spectral differentiation requires a periodic grid")
    fh = _forward(f, grid)
    nyquist = np.pi / grid.spacing
    out = []
    for k in grid._rfft_wavenumbers:
        kd = np.where(np.abs(k) >= nyquist * (1.0 - 1e-12), 0.0, k)
        out.append(_inverse(1j * kd * fh, grid))
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

    A pair holds its samples only; the kernels apply the Laplacian when they need it.
    """

    u: np.ndarray
    v: np.ndarray
    grid: Grid = field(repr=False)

    def __post_init__(self) -> None:
        self.grid.check_conforms(self.u)
        self.grid.check_conforms(self.v)

    def validate_finite(self) -> None:
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise ValueError("field pair contains non-finite values")

    def scaled(self, t: float) -> "FieldPair":
        return FieldPair(t * self.u, t * self.v, self.grid)

    def magnitudes(self) -> "FieldPair":
        return FieldPair(np.abs(self.u), np.abs(self.v), self.grid)

    def copy(self) -> "FieldPair":
        return FieldPair(self.u.copy(), self.v.copy(), self.grid)

    def is_zero(self) -> bool:
        return not (np.any(self.u) or np.any(self.v))
