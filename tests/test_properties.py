"""Property-based checks of the grid, functional, fibering, field-file and config invariants.

Examples are drawn by Hypothesis under the derandomized profile registered
in ``conftest.py``, so every run checks the same cases.
"""

import decimal
import math
import sys
import tempfile
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.optimize import brentq

from csgs import (
    FieldPair,
    GridSpec,
    PotentialDef,
    ProblemSpec,
    apply_laplacian,
    build_grid,
    energy,
    energy_gradient,
    integrate,
    lp_integral,
    read_field,
    sample_potentials,
    translate_lattice,
    write_field,
)
from csgs.config import canonical_config, parse_config
from csgs.errors import GridMismatchError, NonFiniteEnergyError
from csgs.functional import (
    PairInvariants,
    _gradient,
    _invariants,
    _odd_power,
    odd_power,
    pair_inner,
    pair_invariants,
)
from csgs.grid import _lp_sum
from csgs.grid import shifted_inverse, spectral_partials
from csgs.nehari import fibering_scale_from_invariants
from csgs.potentials import KIND_PARAMS, VALIDATION_MODES
from csgs.solver import INIT_MODES

from conftest import random_pair

CONST = PotentialDef.constant
KINDS = [("periodic", "spectral"), ("periodic", "fd2"), ("dirichlet", "fd2")]
MAX_N = {1: 64, 2: 16, 3: 8}


@st.composite
def grid_specs(draw, kinds=KINDS):
    dim = draw(st.integers(1, 3))
    n = 2 * draw(st.integers(2, MAX_N[dim] // 2))
    half_width = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    boundary, mode = draw(st.sampled_from(kinds))
    return GridSpec(dim, half_width, n, boundary, mode)


@given(spec=grid_specs(), seed=st.integers(0, 2**16))
def test_laplacian_is_symmetric_under_integrate(spec, seed):
    g = build_grid(spec)
    fp = random_pair(g, seed)
    f, h = fp.u, fp.v
    lap_f, lap_h = apply_laplacian(f, g), apply_laplacian(h, g)
    left, right = integrate(f * lap_h, g), integrate(lap_f * h, g)
    scale = integrate(np.abs(f * lap_h), g) + integrate(np.abs(lap_f * h), g)
    assert abs(left - right) <= 1e-13 * scale


@given(spec=grid_specs(), node=st.integers(0, 2**16), component=st.sampled_from("uv"))
def test_gradient_pairing_matches_central_differences(spec, node, component):
    g = build_grid(spec)
    ps = sample_potentials((CONST(1.0), CONST(1.0), CONST(0.3)), 0.3, g)
    pspec = ProblemSpec(spec.dim, 4.0, 4.0, 1.0)
    fp = random_pair(g, 3, smooth=True)
    e = np.zeros(g.shape)
    e.flat[node % g.num_nodes] = 1.0
    zero = np.zeros(g.shape)
    d = FieldPair(e, zero, g) if component == "u" else FieldPair(zero, e, g)
    eps = 1e-5
    plus = energy(FieldPair(fp.u + eps * d.u, fp.v + eps * d.v, g), ps, pspec, g).total
    minus = energy(FieldPair(fp.u - eps * d.u, fp.v - eps * d.v, g), ps, pspec, g).total
    fd = (plus - minus) / (2.0 * eps)
    pairing = pair_inner(energy_gradient(fp, ps, pspec, g), d, g)
    assert abs(fd - pairing) <= 1e-6 * max(g.spacing**spec.dim, abs(pairing))


@given(spec=grid_specs(kinds=[("periodic", "spectral")]), seed=st.integers(0, 2**16),
       shift=st.floats(0.5, 10.0))
def test_spectral_kernels_match_the_nd_transforms_bit_for_bit(spec, seed, shift):
    g = build_grid(spec)
    fp = random_pair(g, seed)
    f = fp.u
    axes = tuple(range(spec.dim))
    fh = np.fft.rfftn(f, axes=axes)

    def back(coefficients):
        return np.fft.irfftn(coefficients, s=g.shape, axes=axes)

    assert np.array_equal(apply_laplacian(f, g), back(fh * g._lap_multiplier))
    assert np.array_equal(shifted_inverse(f, shift, g), back(fh / (shift - g._lap_multiplier)))
    nyquist = np.pi / g.spacing
    for k, partial in zip(g._rfft_wavenumbers, spectral_partials(f, g)):
        kd = np.where(np.abs(k) >= nyquist * (1.0 - 1e-12), 0.0, k)
        assert np.array_equal(partial, back(1j * kd * fh))
    assert integrate(f, g) == g.spacing**spec.dim * np.sum(f)
    # a stack of fields: the n-d transforms over its trailing axes
    stack, trailing = np.stack([fp.u, fp.v]), tuple(range(1, spec.dim + 1))
    stack_h = np.fft.rfftn(stack, axes=trailing) * g._lap_multiplier
    stack_lap = np.fft.irfftn(stack_h, s=g.shape, axes=trailing)
    assert np.array_equal(apply_laplacian(stack, g), stack_lap)


@given(spec=grid_specs(), seed=st.integers(0, 2**16), shift=st.floats(0.5, 10.0))
def test_shifted_inverse_inverts_the_grids_own_laplacian(spec, seed, shift):
    g = build_grid(spec)
    f = random_pair(g, seed).u
    x = shifted_inverse(f, shift, g)
    assert np.max(np.abs(shift * x - apply_laplacian(x, g) - f)) <= 1e-12 * np.max(np.abs(f))


@given(spec=grid_specs(), seed=st.integers(0, 2**16), count=st.integers(1, 3))
def test_stacked_laplacian_matches_each_field_bit_for_bit(spec, seed, count):
    g = build_grid(spec)
    stack = np.random.default_rng(seed).standard_normal((count, *g.shape))
    kept = stack.copy()
    each = np.stack([apply_laplacian(f, g) for f in stack])
    assert np.array_equal(apply_laplacian(stack, g), each)
    out, single = np.empty_like(stack), np.empty(g.shape)
    assert apply_laplacian(stack, g, out=out) is out
    assert apply_laplacian(stack[0], g, out=single) is single
    assert np.array_equal(out, each) and np.array_equal(single, each[0])
    inverses = np.stack([shifted_inverse(f, 1.5, g) for f in stack])
    assert np.array_equal(shifted_inverse(stack, 1.5, g), inverses)
    assert np.array_equal(stack, kept)
    for bad in (stack[..., :-2], stack[None], stack[..., None]):
        with pytest.raises(GridMismatchError):
            apply_laplacian(bad, g)
    with pytest.raises(GridMismatchError):
        apply_laplacian(stack, g, out=np.empty((count + 1, *g.shape)))


@st.composite
def lattice_cases(draw):
    dim = draw(st.integers(1, 3))
    half_width = draw(st.sampled_from([1, 2] if dim == 3 else [1, 2, 3]))
    per_unit = draw(st.sampled_from([1, 2] if dim == 3 else [1, 2, 4]))
    n = 2 * half_width * per_unit
    assume(n >= 4)
    shift = tuple(draw(st.integers(-5, 5)) for _ in range(dim))
    return GridSpec(dim, float(half_width), n), shift


@given(case=lattice_cases(), seed=st.integers(0, 2**16),
       p=st.sampled_from([2.0, 2.5, 3.0, 4.0, 6.0]))
def test_lp_integral_is_bit_identical_under_lattice_shifts(case, seed, p):
    spec, shift = case
    g = build_grid(spec)
    f = random_pair(g, seed).u
    assert lp_integral(translate_lattice(f, shift, g), p, g) == lp_integral(f, p, g)


@given(case=lattice_cases(), seed=st.integers(0, 2**16),
       pq=st.sampled_from([(4.0, 4.0), (3.0, 5.0), (4.0, 6.0), (2.5, 3.5)]),
       mu=st.sampled_from([0.0, 1.0, 2.5]))
def test_pair_invariants_agree_under_lattice_shifts(case, seed, pq, mu):
    """The invariants sum in array order, so a lattice shift may move their last bits (only
    ``lp_integral`` sorts); the shifted pair's invariants agree to rounding, not bit for bit."""
    spec, shift = case
    g = build_grid(spec)
    defs = (PotentialDef.cosine_lattice(1.5, 0.5), CONST(1.0), CONST(0.3))
    ps = sample_potentials(defs, 0.5, g)
    pspec = ProblemSpec(spec.dim, *pq, mu)
    fp = random_pair(g, seed).magnitudes()
    moved = FieldPair(translate_lattice(fp.u, shift, g), translate_lattice(fp.v, shift, g), g)
    for a, b in zip(astuple(pair_invariants(moved, ps, pspec, g)),
                    astuple(pair_invariants(fp, ps, pspec, g))):
        assert math.isclose(a, b, rel_tol=1e-13)


@given(spec=grid_specs(), seed=st.integers(0, 2**16))
def test_field_file_round_trip_is_bit_identical(spec, seed):
    fp = random_pair(build_grid(spec), seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pair.csgs"
        write_field(fp, path)
        back = read_field(path, build_grid(spec))
    assert back.grid.spec == spec
    assert back.u.tobytes() == fp.u.tobytes()
    assert back.v.tobytes() == fp.v.tobytes()


SCALES = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
LOG_MAX, LOG_MIN = math.log(sys.float_info.max), math.log(sys.float_info.min)


@given(quad=SCALES, a=st.just(0.0) | SCALES, b=SCALES,
       pq=st.sampled_from([(4.0, 4.0), (4.0, 6.0), (2.5, 6.0)]))
def test_fibering_root_satisfies_the_constraint(quad, a, b, pq):
    """Checked in s = log t, so that the check cannot overflow: J(t) = t^2 B (1 - e^psi(s))
    with psi(s) = log(a t^(p-2) + b t^(q-2)) - log B.  A root is refused only when it leaves
    the normal range or t^2 or t^2 B overflows; t^q overflowing alone is no reason."""
    spec = ProblemSpec(3, *pq, 1.0)
    inv = PairInvariants(quad=quad, coupling=0.0, pnorm_mu=a, qnorm=b)
    ep, eq = spec.p - 2.0, spec.q - 2.0
    la, lb, lq = math.log(a) if a > 0.0 else -math.inf, math.log(b), math.log(quad)

    def psi(s):
        return float(np.logaddexp(la + ep * s, lb + eq * s)) - lq

    try:
        t = fibering_scale_from_invariants(inv, spec).t_mu
    except NonFiniteEnergyError:
        # psi has slope in [p - 2, q - 2], so the root lies between these two points
        ends = sorted((-psi(0.0) / ep, -psi(0.0) / eq))
        s = brentq(psi, ends[0] - 1.0, ends[1] + 1.0, xtol=1e-12)
        assert max(2.0 * s, 2.0 * s + lq) > LOG_MAX - 1e-6 or s < LOG_MIN + 1e-6
        return
    s = math.log(t)
    assert abs(math.expm1(psi(s))) <= 1e-9
    # maximality along the ray, from g(t l) / (t^2 B) = l^2/2 - l^p r_a/p - l^q r_b/q
    r_a, r_b = math.exp(la + ep * s - lq), math.exp(lb + eq * s - lq)

    def g(scale):
        return scale * scale / 2.0 - scale**spec.p * r_a / spec.p - scale**spec.q * r_b / spec.q
    assert g(1.0 - 1e-3) < g(1.0) > g(1.0 + 1e-3)


@given(p=st.floats(2.0, 6.0, exclude_min=True), t=st.floats(-150.0, 150.0).map(lambda e: 10.0**e),
       c=SCALES)
def test_ray_terms_match_a_decimal_reference(p, t, c):
    """Wherever t^p c is a normal double, the constraint and energy terms along the ray match
    it to 1e-12 relative, also where t^p alone overflows or underflows."""
    with decimal.localcontext(decimal.Context(prec=50)):
        reference = decimal.Decimal(t) ** decimal.Decimal(p) * decimal.Decimal(c)
    assume(sys.float_info.min <= reference <= sys.float_info.max)
    inv, spec = PairInvariants(0.0, 0.0, c, 0.0), ProblemSpec(3, p, p, 1.0)
    assert -inv.constraint_at(t, spec) == pytest.approx(float(reference), rel=1e-12, abs=0.0)
    assert -inv.energy_at(t, spec) == pytest.approx(float(reference) / p, rel=1e-12, abs=0.0)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
PATHS = st.from_regex(r"[A-Za-z0-9_./-]{1,16}", fullmatch=True)


def _optional(draw, keys):
    """``key = value`` lines for a drawn subset of the optional keys."""
    return "".join(f"{k} = {draw(v)}\n" for k, v in keys.items() if draw(st.booleans()))


@st.composite
def potential_sections(draw, prefix):
    text = ""
    for name in ("v1", "v2", "lambda"):
        kind = draw(st.sampled_from(sorted(KIND_PARAMS)))
        text += f"[{prefix}.{name}]\nkind = {kind}\n"
        for param in KIND_PARAMS[kind]:
            text += f"{param} = {draw(POSITIVE if param == 'sigma' else FINITE)!r}\n"
    return text


@st.composite
def config_texts(draw):
    """Valid config documents over every key range and optional section."""
    dim = draw(st.integers(1, 3))
    boundary, mode = draw(st.sampled_from(KINDS))
    half_width = draw(st.floats(1e-100, 1e100))  # (2L/n)^d stays a normal double for n <= 128
    text = f"[grid]\ndim = {dim}\nhalf_width = {half_width!r}\n"
    text += f"points_per_dim = {2 * draw(st.integers(2, 64))}\n"
    if (boundary, mode) != ("periodic", "spectral") or draw(st.booleans()):
        text += f"boundary = {boundary}\nlaplacian = {mode}\n"

    q_max = 6.0 if dim == 3 else 1e3
    p = draw(st.floats(min_value=2.0, max_value=q_max, exclude_min=True))
    q = draw(st.floats(min_value=p, max_value=q_max))
    mu = draw(st.floats(min_value=0.0, max_value=1e6))
    text += f"[problem]\np = {p!r}\nq = {q!r}\nmu = {mu!r}\n"

    delta = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    text += f"[potentials]\ndelta = {delta!r}\n"
    text += _optional(draw, {"mode": st.sampled_from(VALIDATION_MODES),
                             "tail_tol": POSITIVE.map(repr)})
    text += draw(potential_sections("potential"))
    if draw(st.booleans()):
        text += draw(potential_sections("reference"))

    if draw(st.booleans()):
        text += "[solver]\n" + _optional(draw, {
            "max_iters": st.integers(0, 10**6),
            "grad_tol": POSITIVE.map(repr),
            "seed": st.integers(-(2**31), 2**31),
            "init": st.sampled_from(INIT_MODES),
        })
        if text.endswith("init = file\n"):  # init_file is read exactly when init = file
            text += f"init_file = {draw(PATHS)}\n"
    if draw(st.booleans()):
        mus = sorted(draw(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=5, unique=True)))
        text += "[sweep]\nmu_values = " + ", ".join(repr(m) for m in mus) + "\n"
    if draw(st.booleans()):
        field = draw(st.none() | PATHS)
        bubble = field is None or draw(st.booleans())  # the section needs one of the two
        text += "[pohozaev]\n" + ("" if field is None else f"field = {field}\n")
        if bubble or draw(st.booleans()):
            text += f"bubble = {str(bubble).lower()}\n"
        text += _optional(draw, {"bubble_scale": POSITIVE.map(repr)})
    if draw(st.booleans()):
        text += "[output]\n" + _optional(draw, {"dir": PATHS})
    return text


@given(text=config_texts())
def test_config_parse_serialize_parse_is_idempotent(text):
    cfg = parse_config(text)
    canon = canonical_config(cfg)
    again = parse_config(canon)
    assert again == cfg
    assert canonical_config(again) == canon


# The kernels' arithmetic as it was written before the descent moved onto a
# workspace; the public kernels and the descent's array kernels must
# reproduce it bit for bit.
def _ref_sum(f, g):
    return float(g.cell_volume * np.add.reduce(f, axis=None))


def _ref_whole_power(a, k):
    if k == 1:
        return a
    half = _ref_whole_power(a * a, k // 2)
    return half * a if k % 2 else half


def _ref_lp(f, p, g, sort=True):
    """Quadrature of |f|^p, summed sorted as ``lp_integral`` does or in array order as the
    descent does."""
    with np.errstate(over="ignore"):
        vals = np.abs(f, dtype=float).ravel()
        vals = _ref_whole_power(vals, int(p)) if float(p).is_integer() and p >= 1 else vals**p
        return float(g.cell_volume * np.add.reduce(np.sort(vals) if sort else vals))


def _ref_odd_power(f, p):
    with np.errstate(over="ignore"):
        if float(p).is_integer() and p >= 3:
            return f * _ref_whole_power(np.abs(f), int(p) - 2)
        return np.sign(f) * np.abs(f) ** (p - 1.0)


def _ref_invariants(u, v, lap_u, lap_v, ps, spec, g):
    density = u * (-lap_u) + v * (-lap_v) + ps.v1 * u * u + ps.v2 * v * v
    norm_e_sq, coupling = _ref_sum(density, g), 2.0 * _ref_sum(ps.lam * u * v, g)
    pnorm = _ref_lp(u, spec.p, g, sort=False) if spec.mu != 0.0 else 0.0
    return norm_e_sq - coupling, coupling, spec.mu * pnorm, _ref_lp(v, spec.q, g, sort=False)


def _ref_gradient(u, v, lap_u, lap_v, ps, spec):
    gu = -lap_u + ps.v1 * u - ps.lam * v
    if spec.mu != 0.0:
        gu -= spec.mu * _ref_odd_power(u, spec.p)
    gv = -lap_v + ps.v2 * v - _ref_odd_power(v, spec.q) - ps.lam * u
    return gu, gv


def _hexes(values):
    return [float.hex(float(x)) for x in values]


@given(
    spec=grid_specs(),
    seed=st.integers(0, 2**16),
    pq=st.sampled_from([(4.0, 4.0), (3.0, 5.0), (4.0, 6.0), (2.5, 3.5), (3.0, 4.5)]),
    mu=st.sampled_from([0.0, 1.0, 2.5]),
    scale=st.sampled_from([1.0, 1e60]),
)
def test_descent_kernels_reproduce_the_reference_bit_for_bit(spec, seed, pq, mu, scale):
    """The kernels keep the reference's bits, also where |v|^q overflows, and stay silent."""
    g = build_grid(spec)
    defs = (PotentialDef.gaussian(1.0, 0.5, 0.7), PotentialDef.cosine_lattice(1.5, 0.5), CONST(0.3))
    ps = sample_potentials(defs, 0.5, g)
    pspec = ProblemSpec(spec.dim, *pq, mu)
    fp = random_pair(g, seed).scaled(scale)
    u, v = fp.u, fp.v
    lap_u, lap_v = apply_laplacian(u, g), apply_laplacian(v, g)
    inputs = (u, v, lap_u, lap_v, ps.v1, ps.v2, ps.lam)
    before = [a.copy() for a in inputs]
    ref_inv = _hexes(_ref_invariants(u, v, lap_u, lap_v, ps, pspec, g))
    ref_gu, ref_gv = _ref_gradient(u, v, lap_u, lap_v, ps, pspec)

    def nan_work(k):
        """Work arrays whose stale contents must not leak into a result."""
        return [np.full(g.shape, np.nan) for _ in range(k)]

    def fields(inv):
        return _hexes((inv.quad, inv.coupling, inv.pnorm_mu, inv.qnorm))

    with np.errstate(over="ignore", invalid="ignore"):  # the solve's guard
        assert fields(_invariants(u, v, lap_u, lap_v, ps, pspec, g, *nan_work(2))) == ref_inv
        gu, gv, work, spare = nan_work(4)
        _gradient(u, v, lap_u, lap_v, ps, pspec, gu, gv, work, spare)
        assert np.array_equal(gu, ref_gu) and np.array_equal(gv, ref_gv)
        for f, p in ((u, pspec.p), (v, pspec.q)):
            assert _lp_sum(f, p, g, *nan_work(2)).hex() == _ref_lp(f, p, g, sort=False).hex()
            assert np.array_equal(_odd_power(f, p, *nan_work(2)), _ref_odd_power(f, p))

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the public kernels bring their own guards
        assert fields(pair_invariants(FieldPair(u, v, g), ps, pspec, g)) == ref_inv
        public = energy_gradient(FieldPair(u, v, g), ps, pspec, g)
        assert np.array_equal(public.u, ref_gu) and np.array_equal(public.v, ref_gv)
        for f, p in ((u, pspec.p), (v, pspec.q)):
            assert lp_integral(f, p, g).hex() == _ref_lp(f, p, g).hex()
            assert np.array_equal(odd_power(f, p), _ref_odd_power(f, p))

    for a, b in zip(inputs, before):
        assert np.array_equal(a, b)
