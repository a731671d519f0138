"""Property-based checks of the grid and functional invariants.

Examples are drawn by Hypothesis under the derandomized profile registered
in ``conftest.py``, so every run checks the same cases.
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

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
    sample_potentials,
    translate_lattice,
)
from csgs.functional import pair_inner

from conftest import random_pair

CONST = PotentialDef.constant
KINDS = [("periodic", "spectral"), ("periodic", "fd2"), ("dirichlet", "fd2")]
MAX_N = {1: 64, 2: 16, 3: 8}


@st.composite
def grid_specs(draw):
    dim = draw(st.integers(1, 3))
    n = 2 * draw(st.integers(2, MAX_N[dim] // 2))
    half_width = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    boundary, mode = draw(st.sampled_from(KINDS))
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
