"""The benchmark's checks accept real outputs and reject perturbed ones.

Run with ``python3 -m pytest perfbench/test_checks.py``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checker  # noqa: E402
import csgs  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

C = csgs.PotentialDef.constant


@pytest.fixture(scope="module")
def ground():
    """A converged 1-D ground state and the checker's view of its problem."""
    grid = csgs.build_grid(csgs.GridSpec(1, 4.0, 128))
    ps = csgs.sample_potentials((C(1.0), C(1.0), C(0.3)), 0.3, grid)
    assert csgs.validate_assumptions(ps, "periodic-strict").overall
    spec = csgs.ProblemSpec(1, 4.0, 4.0, 1.0)
    rep = csgs.minimize_ground_state(ps, spec, grid)
    assert rep.converged
    box = checker.Box(1, 4.0, 128)
    ones = np.ones(box.shape)
    return rep, checker.Problem(box, ones, ones, 0.3 * ones, 0.3, 4.0, 4.0, 1.0)


def test_laplacians_match_the_program():
    rng = np.random.default_rng(0)
    for mode in ("spectral", "fd2"):
        grid = csgs.build_grid(csgs.GridSpec(3, 2.0, 8, "periodic", mode))
        f = rng.standard_normal(grid.shape)
        own = checker.laplacian(f, checker.Box(3, 2.0, 8, mode))
        np.testing.assert_allclose(own, csgs.apply_laplacian(f, grid), rtol=0, atol=1e-11)


def test_ground_state_passes(ground):
    rep, pr = ground
    assert checker.check_ground_state(rep.field.u, rep.field.v, rep.energy, pr, 1e-6, "t") == []


def test_ground_state_off_the_manifold_fails(ground):
    rep, pr = ground
    u, v = 1.01 * rep.field.u, 1.01 * rep.field.v
    inv = checker.invariants(u, v, pr)
    problems = checker.check_ground_state(u, v, inv.energy, pr, 1e-6, "t")
    assert any("|J|/B" in p for p in problems)
    assert any("|grad I|" in p for p in problems)
    assert any("manifold identity" in p for p in problems)


def test_ground_state_wrong_energy_fails(ground):
    rep, pr = ground
    problems = checker.check_ground_state(rep.field.u, rep.field.v, rep.energy * 1.001, pr, 1e-6, "t")
    assert any("recomputed" in p for p in problems)


def test_ground_state_with_nan_fails(ground):
    rep, pr = ground
    u = rep.field.u.copy()
    u[3] = np.nan
    assert checker.check_ground_state(u, rep.field.v, rep.energy, pr, 1e-6, "t")


def test_sweep_checks():
    ok = checker.check_sweep([1.0, 16.0], [4.97, 0.80], [(16.0, 0.80, 0.80)])
    assert ok == []
    assert checker.check_sweep([1.0, 16.0], [0.80, 4.97], [(16.0, 4.97, 4.97)])
    assert checker.check_sweep([1.0, 16.0], [4.97, 0.80], [(16.0, 0.80, 0.81)])
    assert checker.check_sweep([1.0, 16.0], [4.97, 0.80], [])
    assert checker.check_sweep([1.0, 2.0], [5.2, 4.9], [(2.0, 4.9, 4.9)])


def test_seed_levels():
    assert checker.check_seed_levels([1.1716319697, 1.1716319699]) == []
    assert checker.check_seed_levels([1.1716319697, 1.17164])


def test_sobolev_checks():
    boxes = {n: checker.Box(3, 8.0, n, "fd2") for n in (16, 24, 32)}
    bq = {n: checker.sobolev_quotient(checker.bubble(b), b) for n, b in boxes.items()}
    good = {16: 0.97 * bq[16], 24: 0.98 * bq[24], 32: 0.985 * bq[32]}
    good = {n: (est, bq[n]) for n, est in good.items()}
    # the drift of these made-up estimates must shrink for the good case
    assert abs(good[32][0] - good[24][0]) < abs(good[24][0] - good[16][0])
    assert checker.check_sobolev(good, boxes) == []
    above = {**good, 24: (1.001 * bq[24], bq[24])}
    assert checker.check_sobolev(above, boxes)
    far = {**good, 24: (0.9 * bq[24], bq[24])}
    assert checker.check_sobolev(far, boxes)
    wrong_bubble = {**good, 24: (good[24][0], bq[24] * (1 + 1e-6))}
    assert checker.check_sobolev(wrong_bubble, boxes)
    # each estimate inside its band, but the last step moves more than the first
    growing = {16: (0.998 * bq[16], bq[16]), 24: (0.96 * bq[24], bq[24]), 32: (0.998 * bq[32], bq[32])}
    assert abs(growing[32][0] - growing[24][0]) > abs(growing[24][0] - growing[16][0])
    assert any("drift" in p for p in checker.check_sobolev(growing, boxes))


def test_certificate_checks():
    box = checker.Box(3, 8.0, 16, "fd2")
    u = checker.bubble(box) + 0.01
    v = 0.5 * checker.bubble(box, 1.3) + 0.02
    ones = np.ones(box.shape)
    pr = checker.Problem(box, ones, 2.0 * ones, 0.5 * ones, 0.5, 6.0, 6.0, 1.0)
    q = checker.integral(u * u + 2.0 * v * v - u * v, box)
    lhs = checker.integral(-u * checker.laplacian(u, box) - v * checker.laplacian(v, box), box)
    assert checker.check_certificate(u, v, pr, q, lhs) == []
    assert checker.check_certificate(u, v, pr, -q, lhs)
    assert checker.check_certificate(u, v, pr, q * 1.01, lhs)
    assert checker.check_certificate(u, v, pr, q, lhs * 1.01)


def test_field_file_round_trip_and_rejections(tmp_path, ground):
    rep, _ = ground
    path = tmp_path / "f.csgs"
    csgs.write_field(rep.field, path)
    u, v, half_width, boundary = checker.read_field(path)
    assert np.array_equal(u, rep.field.u) and np.array_equal(v, rep.field.v)
    assert (half_width, boundary) == (4.0, "periodic")

    bad = rep.field.copy()
    bad.u[5] = math.nan
    csgs.write_field(bad, path)
    with pytest.raises(ValueError, match="non-finite"):
        checker.read_field(path)

    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="payload"):
        checker.read_field(path)
    path.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        checker.read_field(path)


def test_benchmark_spec_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
