"""Independent checks of the benchmark's outputs, written without ``csgs``.

Everything here is plain numpy: the spectral and fd2 Laplacians on periodic
boxes, the uniform quadrature, the coupled quadratic form ``B``, the Nehari
constraint ``J``, the energy gradient ``grad I``, the energy itself, and a
parser for the documented ``.csgs`` field-file format.  Each ``check_*``
function returns a list of human-readable problems; an empty list means the
output passed.  No check compares against a stored copy of earlier output:
each one tests a property the method must have or a value recomputed here.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

# |J| / B after an exact projection onto the manifold is a rounding effect
J_RTOL = 1e-10
# a recomputed gradient norm differs from the solver's only by rounding
GRAD_SLACK = 1e-2
# reported energies and recomputed quadratures agree to rounding
VALUE_RTOL = 1e-9
WARM_COLD_RTOL = 1e-5
SEED_ATOL = 1e-6
SOBOLEV_BAND = 0.05
# the continuum sharp Sobolev constant in three dimensions, S = 3 (pi/2)^(4/3)
SOBOLEV_CONTINUUM = 3.0 * (math.pi / 2.0) ** (4.0 / 3.0)
CONTINUUM_THRESHOLD = SOBOLEV_CONTINUUM**1.5 / 3.0

_HEADER = struct.Struct("<4sIIIdB")


@dataclass(frozen=True)
class Box:
    """A periodic box [-L, L)^d with n nodes per axis and a Laplacian mode."""

    dim: int
    half_width: float
    n: int
    laplacian: str = "spectral"

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    def axis(self) -> np.ndarray:
        return -self.half_width + self.h * np.arange(self.n)

    def coords(self) -> list[np.ndarray]:
        return np.meshgrid(*([self.axis()] * self.dim), indexing="ij")

    def radius_sq(self) -> np.ndarray:
        return sum(c * c for c in self.coords())


def integral(f: np.ndarray, box: Box) -> float:
    """Uniform periodic quadrature: h^d times the sum of the samples."""
    return float(box.h**box.dim * np.sum(f))


def laplacian(f: np.ndarray, box: Box) -> np.ndarray:
    """Periodic Laplacian: full complex FFT with -|k|^2, or the 3-point stencil."""
    if f.shape != box.shape:
        raise ValueError(f"field shape {f.shape} does not match box {box.shape}")
    if box.laplacian == "fd2":
        out = -2.0 * box.dim * f
        for ax in range(box.dim):
            out = out + np.roll(f, 1, axis=ax) + np.roll(f, -1, axis=ax)
        return out / box.h**2
    k = 2.0 * np.pi * np.fft.fftfreq(box.n, d=box.h)
    k2 = np.zeros(box.shape)
    for ax in range(box.dim):
        shape = [1] * box.dim
        shape[ax] = box.n
        k2 = k2 + (k * k).reshape(shape)
    return np.real(np.fft.ifftn(-k2 * np.fft.fftn(f)))


@dataclass(frozen=True)
class Problem:
    """Sampled coefficients and exponents of the coupled system on a box."""

    box: Box
    v1: np.ndarray
    v2: np.ndarray
    lam: np.ndarray
    delta: float
    p: float
    q: float
    mu: float


@dataclass(frozen=True)
class Invariants:
    quad: float        # B(u, v)
    norm_e_sq: float   # ||(u, v)||_E^2
    pnorm: float       # ||u||_p^p
    qnorm: float       # ||v||_q^q
    grad_norm: float   # L^2 norm of grad I
    energy: float


def invariants(u: np.ndarray, v: np.ndarray, pr: Problem) -> Invariants:
    box = pr.box
    lu, lv = laplacian(u, box), laplacian(v, box)
    norm_e_sq = integral(-u * lu - v * lv + pr.v1 * u * u + pr.v2 * v * v, box)
    quad = norm_e_sq - 2.0 * integral(pr.lam * u * v, box)
    pnorm = integral(np.abs(u) ** pr.p, box)
    qnorm = integral(np.abs(v) ** pr.q, box)
    gu = -lu + pr.v1 * u - pr.lam * v - pr.mu * np.abs(u) ** (pr.p - 2.0) * u
    gv = -lv + pr.v2 * v - pr.lam * u - np.abs(v) ** (pr.q - 2.0) * v
    grad_norm = math.sqrt(max(integral(gu * gu + gv * gv, box), 0.0))
    energy = 0.5 * quad - pr.mu * pnorm / pr.p - qnorm / pr.q
    return Invariants(quad, norm_e_sq, pnorm, qnorm, grad_norm, energy)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def check_ground_state(
    u: np.ndarray, v: np.ndarray, reported_energy: float, pr: Problem, grad_tol: float, tag: str
) -> list[str]:
    """A converged Nehari minimizer: on the manifold, stationary, energy identities."""
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        return [f"{tag}: field holds non-finite values"]
    inv = invariants(u, v, pr)
    problems = []
    j = inv.quad - pr.mu * inv.pnorm - inv.qnorm
    if not abs(j) <= J_RTOL * inv.quad:
        problems.append(f"{tag}: |J|/B = {abs(j) / inv.quad:.3e} exceeds {J_RTOL:g}")
    if not inv.grad_norm <= grad_tol * (1.0 + GRAD_SLACK):
        problems.append(f"{tag}: |grad I| = {inv.grad_norm:.3e} above grad_tol {grad_tol:g}")
    if not _close(reported_energy, inv.energy, VALUE_RTOL):
        problems.append(f"{tag}: reported energy {reported_energy!r} != recomputed {inv.energy!r}")
    on_manifold = (0.5 - 1.0 / pr.p) * pr.mu * inv.pnorm + (0.5 - 1.0 / pr.q) * inv.qnorm
    if not _close(reported_energy, on_manifold, VALUE_RTOL):
        problems.append(
            f"{tag}: energy {reported_energy!r} != manifold identity {on_manifold!r}"
        )
    floor = (0.5 - 1.0 / pr.p) * (1.0 - pr.delta) * inv.norm_e_sq
    if not (reported_energy > 0.0 and reported_energy >= floor * (1.0 - VALUE_RTOL)):
        problems.append(f"{tag}: energy {reported_energy!r} below the coercive floor {floor!r}")
    return problems


def check_sweep(
    mus: list[float], energies: list[float], warm_cold: list[tuple[float, float, float]]
) -> list[str]:
    """Energies fall strictly in mu, warm and cold agree, the last is below S^{3/2}/3.

    ``warm_cold`` holds (mu, warm energy, cold energy) for every mu solved both ways.
    """
    problems = []
    if any(b >= a for a, b in zip(energies, energies[1:])):
        problems.append(f"sweep energies do not decrease strictly in mu: {energies}")
    if len(warm_cold) != len(mus) - 1:
        problems.append(f"expected {len(mus) - 1} warm/cold pairs, got {len(warm_cold)}")
    for mu, warm, cold in warm_cold:
        if not abs(warm - cold) <= WARM_COLD_RTOL * max(1.0, abs(cold)):
            problems.append(f"mu={mu}: warm {warm!r} and cold {cold!r} disagree")
    if not energies[-1] < CONTINUUM_THRESHOLD:
        problems.append(
            f"largest mu level {energies[-1]!r} not below S^(3/2)/3 = {CONTINUUM_THRESHOLD!r}"
        )
    return problems


def check_seed_levels(energies: list[float]) -> list[str]:
    if max(energies) - min(energies) > SEED_ATOL:
        return [f"levels from different starts disagree: {energies}"]
    return []


def bubble(box: Box, scale: float = 1.0) -> np.ndarray:
    """The Sobolev extremal (3 s^2)^(1/4) (s^2 + |x|^2)^(-1/2) sampled on the box."""
    s2 = scale * scale
    return (3.0 * s2) ** 0.25 / np.sqrt(s2 + box.radius_sq())


def sobolev_quotient(f: np.ndarray, box: Box) -> float:
    num = integral(-f * laplacian(f, box), box)
    return num / integral(f**6, box) ** (1.0 / 3.0)


def check_sobolev(estimates: dict[int, tuple[float, float]], boxes: dict[int, Box]) -> list[str]:
    """Each estimate sits just below the bubble quotient; the drift shrinks with n.

    ``estimates`` maps n to (estimate, bubble quotient) as the program reported them.
    """
    problems = []
    for n, (est, bq) in estimates.items():
        own = sobolev_quotient(bubble(boxes[n]), boxes[n])
        if not _close(bq, own, VALUE_RTOL):
            problems.append(f"n={n}: bubble quotient {bq!r} != recomputed {own!r}")
        if not (est <= bq * (1.0 + VALUE_RTOL) and est >= (1.0 - SOBOLEV_BAND) * bq):
            problems.append(f"n={n}: estimate {est!r} not within 5% below bubble {bq!r}")
    ns = sorted(estimates)
    drifts = [abs(estimates[b][0] - estimates[a][0]) for a, b in zip(ns, ns[1:])]
    if any(d2 >= d1 for d1, d2 in zip(drifts, drifts[1:])):
        problems.append(f"estimate drift does not shrink with n: {drifts}")
    return problems


def check_certificate(
    u: np.ndarray, v: np.ndarray, pr: Problem, q_reported: float, lhs_reported: float
) -> list[str]:
    """Q >= 0 for a positive candidate, and Q and the gradient side recompute."""
    box = pr.box
    q_own = integral(pr.v1 * u * u + pr.v2 * v * v - 2.0 * pr.lam * u * v, box)
    lhs_own = integral(-u * laplacian(u, box) - v * laplacian(v, box), box)
    problems = []
    if not q_reported >= 0.0:
        problems.append(f"certificate Q = {q_reported!r} is negative for a positive candidate")
    if not _close(q_reported, q_own, VALUE_RTOL):
        problems.append(f"certificate Q {q_reported!r} != recomputed {q_own!r}")
    if not _close(lhs_reported, lhs_own, VALUE_RTOL):
        problems.append(f"identity lhs {lhs_reported!r} != recomputed {lhs_own!r}")
    return problems


# -- field files ----------------------------------------------------------------


def write_field(path, u: np.ndarray, v: np.ndarray, half_width: float) -> None:
    """Write a periodic pair in the documented ``.csgs`` layout."""
    header = _HEADER.pack(b"CSGS", 1, u.ndim, u.shape[0], half_width, 0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(u, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def read_field(path) -> tuple[np.ndarray, np.ndarray, float, str]:
    """Parse a ``.csgs`` file; returns (u, v, half_width, boundary).

    Rejects a bad magic or version, a payload of the wrong length, and any
    non-finite sample.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: {len(raw)} bytes is too short for a header")
    magic, version, dim, n, half_width, boundary = _HEADER.unpack_from(raw)
    if magic != b"CSGS" or version != 1:
        raise ValueError(f"{path}: bad magic {magic!r} or version {version}")
    if dim not in (1, 2, 3) or boundary not in (0, 1):
        raise ValueError(f"{path}: bad dim {dim} or boundary code {boundary}")
    count = n**dim
    payload = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    if payload.size != 2 * count or len(raw) != _HEADER.size + 16 * count:
        raise ValueError(f"{path}: payload does not hold 2 * {n}^{dim} doubles")
    if not np.all(np.isfinite(payload)):
        raise ValueError(f"{path}: payload holds non-finite values")
    shape = (n,) * dim
    u = payload[:count].reshape(shape).astype(float)
    v = payload[count:].reshape(shape).astype(float)
    return u, v, half_width, ("periodic", "dirichlet")[boundary]


def read_csv(path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh if line.strip()]


def read_quantities(path) -> dict[str, str]:
    """A two-column quantity,value CSV as a dict."""
    rows = read_csv(path)
    return {r[0]: r[1] for r in rows[1:]}
