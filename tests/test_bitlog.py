"""The opt-in bit log records every solve's bits, leaves the suite alone without -p, and
compares two logs within a tolerance."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

CASE = """
import numpy as np
from csgs import (FieldPair, GridSpec, PotentialDef, ProblemSpec, SolveOptions, build_grid,
                  sample_potentials, validate_assumptions)
from csgs.diagnostics import pohozaev_residual
from csgs.solver import minimize_ground_state, nonneg_refine

def test_solve():
    g = build_grid(GridSpec(1, 4.0, 32))
    C = PotentialDef.constant
    ps = sample_potentials((C(1.0), C(1.0), C(0.3)), 0.3, g)
    val = validate_assumptions(ps, "periodic")
    print("WORST", *(float(c.worst_value).hex() for c in val.checks))
    rep = minimize_ground_state(ps, ProblemSpec(1, 4.0, 4.0, 1.0), g, SolveOptions(max_iters=5))
    print("ENERGY", rep.energy.hex())

def test_refine():
    g = build_grid(GridSpec(1, 4.0, 32))
    C = PotentialDef.constant
    ps = sample_potentials((C(1.0), C(1.0), C(0.3)), 0.3, g)
    spec = ProblemSpec(1, 4.0, 4.0, 1.0)
    rep = nonneg_refine(minimize_ground_state(ps, spec, g, SolveOptions(max_iters=5)), ps, spec, g)
    print("REFINE", rep.energy.hex(), rep.iterations)

def test_pohozaev():
    g = build_grid(GridSpec(3, 4.0, 8))
    C = PotentialDef.constant
    ps = sample_potentials((C(1.0), C(1.0), C(0.3)), 0.5, g)
    fp = FieldPair(np.exp(-g.radius_sq), 0.5 * np.exp(-g.radius_sq), g)
    rep = pohozaev_residual(fp, ps, ProblemSpec(3, 6.0, 6.0, 1.0), g)
    print("POHOZAEV", rep.lhs.hex(), rep.rhs.hex(), rep.grad_norm.hex())
"""


def _pytest(tmp_path, *args):
    (tmp_path / "test_case.py").write_text(CASE, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path), *args, str(tmp_path / "test_case.py")],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )


def test_records_each_solve_bit_for_bit(tmp_path):
    log = tmp_path / "bits.jsonl"
    run = _pytest(tmp_path, "-p", "bitlog", "--bitlog", str(log))
    assert run.returncode == 0, run.stdout + run.stderr
    energy = run.stdout.split("ENERGY ", 1)[1].split()[0]
    balance = run.stdout.split("POHOZAEV ", 1)[1].split()[:3]
    worst = run.stdout.split("WORST ", 1)[1].split()[:4]
    refined, refine_iterations = run.stdout.split("REFINE ", 1)[1].split()[:2]
    balanced, solved, refine, record, validated = [
        json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    # a refine is one record: the two solves it makes inside are neither logged nor indexed
    assert [(r["test"], r["call"], r["fn"]) for r in (solved, refine)] == [
        ("test_case.py::test_refine", 0, "minimize_ground_state"),
        ("test_case.py::test_refine", 1, "nonneg_refine")]
    assert refine["energy"] == refined and refine["iterations"] == int(refine_iterations)
    assert record["test"] == "test_case.py::test_solve"
    assert record["fn"] == "minimize_ground_state"
    assert record["energy"] == energy
    assert record["iterations"] == 5 and record["converged"] is False
    assert balanced["test"] == "test_case.py::test_pohozaev"
    assert balanced["fn"] == "pohozaev_residual" and balanced["call"] == 0
    assert [balanced[k] for k in ("lhs", "rhs", "grad_norm")] == balance
    # validations are indexed apart, so the solve after one is still call 0
    assert record["call"] == 0
    assert validated["fn"] == "validate_assumptions" and validated["call"] == 0
    assert validated["mode"] == "periodic"
    assert [c["name"] for c in validated["checks"]] == [
        "V1:periodicity", "V2:V1>=0", "V2:V2>=0", "V3:coupling"]
    assert [c["worst"] for c in validated["checks"]] == worst
    assert all(c["passed"] for c in validated["checks"])


def test_not_loaded_by_default(tmp_path):
    run = _pytest(tmp_path, "--bitlog", str(tmp_path / "bits.jsonl"))
    assert run.returncode != 0
    assert "unrecognized arguments: --bitlog" in run.stderr


def _solve(test, energy, iterations=10, converged=True, grad_norm=1e-7):
    return {"test": test, "call": 0, "fn": "minimize_ground_state", "energy": float.hex(energy),
            "grad_norm": float.hex(grad_norm), "iterations": iterations, "converged": converged,
            "failure": None}


@pytest.mark.parametrize("change, status, says", [
    # a solve's gradient norm is its stopping residual, which only ``converged`` bounds
    ([_solve("a", 2.0), _solve("b", 3.0 * (1 + 1e-12), 12, grad_norm=5e-7)], 0,
     "1 identical, 1 moved"),
    ([_solve("a", 2.0), _solve("b", 3.0 * (1 + 1e-8))], 1, "largest relative move 1e-08"),
    ([_solve("a", 2.0)], 1, "missing from the change"),
    ([_solve("a", 2.0), _solve("b", 3.0, converged=False)], 1, "converged True -> False"),
])
def test_compares_two_logs_within_a_tolerance(tmp_path, change, status, says):
    logs = []
    for name, records in (("parent", [_solve("a", 2.0), _solve("b", 3.0)]), ("change", change)):
        logs.append(tmp_path / f"{name}.jsonl")
        logs[-1].write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    run = subprocess.run([sys.executable, str(TESTS / "bitlog.py"), *map(str, logs),
                          "--rtol", "1e-9"], capture_output=True, text=True)
    assert run.returncode == status, run.stdout + run.stderr
    assert says in run.stdout
    if status == 0:
        assert "iterations: 1 of 2 changed, in total 20 -> 22" in run.stdout
