import ast
import math
import struct
from pathlib import Path

import numpy as np
import pytest

import csgs.fieldio
from csgs import (
    ComparisonReport,
    FieldPair,
    GridSpec,
    MuSweep,
    NonexistenceReport,
    PohozaevReport,
    PotentialDef,
    ProblemSpec,
    SolveReport,
    ValidationReport,
    build_grid,
    read_field,
    write_field,
)
from csgs.cli import run_cli
from csgs.config import canonical_config, parse_config
from csgs.errors import ConfigError, FieldFileError
from csgs.fieldio import fmt_float, read_csv_rows, write_report_csv, write_rows
from csgs.potentials import AssumptionCheck

from conftest import random_pair

BASE_CFG = """
[grid]
dim = 1
half_width = 4.0
points_per_dim = 64

[problem]
p = 4.0
q = 4.0
mu = 1.0

[potentials]
delta = 0.3
mode = periodic

[potential.v1]
kind = constant
value = 1.0

[potential.v2]
kind = constant
value = 1.0

[potential.lambda]
kind = constant
value = 0.3

[solver]
max_iters = 2000
grad_tol = 1e-6
"""

MODEL_PAIR_CFG = """
[grid]
dim = 3
half_width = 2.0
points_per_dim = 8

[problem]
p = 6.0
q = 6.0
mu = 1.0

[potentials]
delta = 0.5
mode = nonexistence

[potential.v1]
kind = radial-quadratic
coeff = 0.5

[potential.v2]
kind = radial-quadratic
coeff = 0.5

[potential.lambda]
kind = radial-quadratic
coeff = -0.25
"""

# criterion 7's set: Gaussian wells below a constant reference set pass the asymptotic checks
ASYM_CFG = BASE_CFG.split("[potential.v1]")[0].replace(
    "delta = 0.3\nmode = periodic", "delta = 0.5\nmode = asymptotic"
) + "".join(
    f"[potential.{name}]\nkind = gaussian\nbase = {base}\namp = {amp}\nsigma = 1.0\n"
    f"[reference.{name}]\nkind = constant\nvalue = {base}\n"
    for name, base, amp in (("v1", 2.0, -0.5), ("v2", 2.0, -0.5), ("lambda", 0.4, 0.1))
)
# a reference V1 that is not periodic but passes every other check
GAUSSIAN_REFERENCE_CFG = ASYM_CFG.replace(
    "[reference.v1]\nkind = constant\nvalue = 2.0\n",
    "[reference.v1]\nkind = gaussian\nbase = 2.0\namp = 0.1\nsigma = 1.0\n",
)

NON_FINITE_CASES = {
    "solver.grad_tol": lambda v: BASE_CFG.replace("grad_tol = 1e-6", f"grad_tol = {v}"),
    "problem.mu": lambda v: BASE_CFG.replace("mu = 1.0", f"mu = {v}"),
    "sweep.mu_values": lambda v: BASE_CFG + f"\n[sweep]\nmu_values = 1, {v}\n",
}


class TestConfig:
    def test_parse_roundtrip_idempotent(self):
        cfg = parse_config(BASE_CFG)
        canon = canonical_config(cfg)
        cfg2 = parse_config(canon)
        assert canonical_config(cfg2) == canon

    def test_parse_values(self):
        cfg = parse_config(BASE_CFG)
        assert cfg.grid.points_per_dim == 64
        assert cfg.problem.p == 4.0
        assert cfg.delta == 0.3
        assert cfg.solver.max_iters == 2000
        assert cfg.pot_defs[2].params == (0.3,)

    def test_missing_section(self):
        with pytest.raises(ConfigError, match=r"\[problem\]"):
            parse_config("[grid]\ndim = 1\nhalf_width = 1\npoints_per_dim = 8\n")

    def test_missing_key_named(self):
        broken = BASE_CFG.replace("value = 0.3\n", "")
        with pytest.raises(ConfigError, match="potential.lambda.value"):
            parse_config(broken)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="grid.bogus"):
            parse_config(BASE_CFG.replace("[grid]", "[grid]\nbogus = 1"))

    def test_bad_number_named(self):
        with pytest.raises(ConfigError, match="problem.p"):
            parse_config(BASE_CFG.replace("p = 4.0", "p = fast"))

    def test_range_constraints_enforced(self):
        with pytest.raises(ConfigError, match=r"\[grid\].*even"):
            parse_config(BASE_CFG.replace("points_per_dim = 64", "points_per_dim = 63"))
        with pytest.raises(ConfigError, match="delta"):
            parse_config(BASE_CFG.replace("delta = 0.3", "delta = 1.5"))
        with pytest.raises(ConfigError, match="mode"):
            parse_config(BASE_CFG.replace("mode = periodic", "mode = sideways"))
        with pytest.raises(ConfigError, match=r"\[problem\].*critical exponent"):
            parse_config(MODEL_PAIR_CFG.replace("q = 6.0", "q = 6.0000000000001"))

    def test_sweep_list_validation(self):
        good = parse_config(BASE_CFG + "\n[sweep]\nmu_values = 0.5, 1, 2\n")
        assert good.mu_values == [0.5, 1.0, 2.0]
        with pytest.raises(ConfigError, match="non-empty"):
            parse_config(BASE_CFG + "\n[sweep]\nmu_values =\n")
        with pytest.raises(ConfigError, match="increasing"):
            parse_config(BASE_CFG + "\n[sweep]\nmu_values = 2, 1\n")

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("key", sorted(NON_FINITE_CASES))
    def test_non_finite_number_named(self, key, value):
        with pytest.raises(ConfigError, match=rf"{key} must be a finite number"):
            parse_config(NON_FINITE_CASES[key](value))

    @pytest.mark.parametrize("key", ["step0", "armijo_factor", "armijo_decrease", "recenter_every"])
    def test_line_search_constants_not_configurable(self, key):
        with pytest.raises(ConfigError, match=rf"unknown key solver\.{key}"):
            parse_config(BASE_CFG + f"{key} = 0.5\n")

    def test_bad_init_mode_names_section(self):
        with pytest.raises(ConfigError, match=r"\[solver\].*init"):
            parse_config(BASE_CFG + "init = bogus\n")

    def test_canonical_solver_keys(self):
        canon = canonical_config(parse_config(BASE_CFG))
        section = canon.split("[solver]\n")[1].split("\n\n")[0]
        keys = [line.split(" = ")[0] for line in section.splitlines()]
        assert keys == ["max_iters", "grad_tol", "seed", "init"]

    @pytest.mark.parametrize(
        "extra, named",
        [
            ("\n[sovler]\nmax_iters = 3\n", r"unknown section \[sovler\]"),
            ("init = random\ninit_file = s.csgs\n", r"solver\.init_file"),
            ("init = file\n", r"solver\.init_file"),
            ("\n[reference.v2]\nkind = constant\nvalue = 1.0\n", r"missing section \[reference\.v1\]"),
            ("\n[DEFAULT]\n", r"unknown section \[DEFAULT\]"),
        ],
        ids=["misspelled-section", "init-file-unread", "init-file-missing", "lone-reference",
             "default-section"],
    )
    def test_dropped_input_rejected(self, extra, named):
        # each of these used to parse without complaint
        with pytest.raises(ConfigError, match=named):
            parse_config(BASE_CFG + extra)

    def test_readme_config_parses_and_roundtrips(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("A minimal config:\n\n```ini\n")[1].split("```")[0]
        cfg = parse_config(block)
        assert parse_config(canonical_config(cfg)) == cfg
        assert cfg.mu_values == [0.5, 1, 2, 4, 8, 16] and cfg.pohozaev_bubble

    def test_gaussian_potential_roundtrip(self):
        text = BASE_CFG.replace(
            "[potential.lambda]\nkind = constant\nvalue = 0.3",
            "[potential.lambda]\nkind = gaussian\nbase = 0.4\namp = 0.1\nsigma = 1.0",
        )
        cfg = parse_config(text)
        assert cfg.pot_defs[2].kind == "gaussian"
        assert parse_config(canonical_config(cfg)).pot_defs[2].params == (0.4, 0.1, 1.0)


class TestFieldFile:
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
    def test_roundtrip_bit_exact(self, tmp_path, dim, n):
        g = build_grid(GridSpec(dim, 2.0, n))
        fp = random_pair(g, seed=dim)
        path = tmp_path / "field.csgs"
        write_field(fp, path)
        back = read_field(path)
        assert np.array_equal(back.u, fp.u)
        assert np.array_equal(back.v, fp.v)
        assert back.grid.spec.dim == dim

    def test_roundtrip_with_supplied_grid(self, tmp_path, grid_1d):
        fp = random_pair(grid_1d, 9)
        path = tmp_path / "f.csgs"
        write_field(fp, path)
        back = read_field(path, grid_1d)
        assert back.grid is grid_1d
        assert np.array_equal(back.u, fp.u)

    def test_grid_mismatch_detected(self, tmp_path, grid_1d):
        fp = random_pair(grid_1d, 9)
        path = tmp_path / "f.csgs"
        write_field(fp, path)
        other = build_grid(GridSpec(1, 4.0, 32))
        with pytest.raises(FieldFileError, match="does not match"):
            read_field(path, other)

    def test_bad_magic_names_bytes(self, tmp_path, grid_1d):
        path = tmp_path / "f.csgs"
        write_field(random_pair(grid_1d), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FieldFileError, match="NOPE"):
            read_field(path)

    def test_truncated_payload(self, tmp_path, grid_1d):
        path = tmp_path / "f.csgs"
        write_field(random_pair(grid_1d), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FieldFileError, match=r"payload short: expected 2\*n\^d\*8"):
            read_field(path)

    @pytest.mark.parametrize(
        "dim, n, half_width, payload",
        [(20_000, 4, 2.0, 4), (0, 4, 2.0, 16), (1, 5, 2.0, 80), (1, 4, -1.0, 64),
         (3, 4, 1e200, 1024)],
        ids=["dim-20000", "dim-0", "odd-n", "negative-half-width", "overflowing-cell"],
    )
    def test_bad_header_rejected_before_sizing(self, tmp_path, dim, n, half_width, payload):
        # the payload size n^dim once came from the unchecked header
        path = tmp_path / "f.csgs"
        path.write_bytes(struct.pack("<4sIIIdB", b"CSGS", 1, dim, n, half_width, 0) + bytes(payload))
        with pytest.raises(FieldFileError, match="bad field-file header"):
            read_field(path)

    def test_non_finite_payload_rejected(self, tmp_path, grid_1d):
        fp = random_pair(grid_1d)
        fp.u[5] = np.nan
        path = tmp_path / "f.csgs"
        write_field(fp, path)
        with pytest.raises(FieldFileError, match="non-finite"):
            read_field(path)

    def test_unsupported_version(self, tmp_path, grid_1d):
        path = tmp_path / "f.csgs"
        write_field(random_pair(grid_1d), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(FieldFileError, match="version 99"):
            read_field(path)


def _solve_report(energy_trace, grad_trace):
    return SolveReport(
        None, energy_trace[-1], grad_trace[-1], len(energy_trace) - 1, energy_trace,
        grad_trace, 0, True, ProblemSpec(1, 4.0, 4.0, 1.0), 1.0,
    )


TAIL_NOTE = "max over |x|_inf >= 0.8 L, tolerance 0.01"

# hand-built reports and the exact text of their CSVs: 17-digit floats,
# true/false, empty cells for missing values, space-joined node tuples and
# ';' for commas inside text
CSV_CASES = [
    pytest.param(
        _solve_report([1.5, 0.1], [2.0, 1e-7]),
        "iter,energy,grad_norm\n0,1.5,2\n1,0.10000000000000001,9.9999999999999995e-08\n",
        id="solve",
    ),
    pytest.param(
        MuSweep([0.5, 1.0, 2.0], [3.0, 2.0, 1.0], 1.5, 2.0, [True, True, True], []),
        "mu,c,threshold,below_threshold\n0.5,3,1.5,false\n1,2,1.5,false\n2,1,1.5,true\n",
        id="sweep",
    ),
    pytest.param(
        MuSweep([0.5, 1.0], [2.0 / 3.0, 0.25], None, None, [True, False], []),
        "mu,c,threshold,below_threshold\n0.5,0.66666666666666663,,\n1,0.25,,\n",
        id="sweep-no-threshold",
    ),
    pytest.param(
        ValidationReport(
            "asymptotic",
            [
                AssumptionCheck("V1:periodicity", True, 0.0),
                AssumptionCheck("V4:tail-decay", np.bool_(False), 0.1, (-3.25, 0.5), TAIL_NOTE),
            ],
            nu1=1.0,
            nu2=2.0 / 3.0,
        ),
        "assumption,passed,worst_value,worst_node,note\n"
        "V1:periodicity,true,0,,\n"
        "V4:tail-decay,false,0.10000000000000001,-3.25 0.5,"
        "max over |x|_inf >= 0.8 L; tolerance 0.01\n"
        "nu1,,1,,smallest Rayleigh quotient\n"
        "nu2,,0.66666666666666663,,smallest Rayleigh quotient\n",
        id="validation",
    ),
    pytest.param(
        ComparisonReport(2.0, 1.5, 0.5, 0.0, True),
        "c_periodic,c_asym,gap,margin,passed\n2,1.5,0.5,0,true\n",
        id="compare",
    ),
    pytest.param(
        PohozaevReport(
            1.0, 0.75, 0.25, 0.25, {"coupling": 0.5, "potential": 0.25}, 1e-4,
            np.bool_(True), 0.0, ("analytic",) * 3,
        ),
        "quantity,value\nlhs,1\nrhs,0.75\nresidual,0.25\nrelative,0.25\n"
        "term:coupling,0.5\nterm:potential,0.25\ngrad_norm,0.0001\n"
        "near_critical,true\nboundary_shell_max,0\n",
        id="pohozaev",
    ),
    pytest.param(
        NonexistenceReport(2.0, True, -1.0, 3.0, 0.5, 1.0, 1.0, "positive", 7.0),
        "quantity,value\nq_value,2\nq_nonneg_ok,true\npohozaev_side,-1\nmargin,3\n"
        "q_amgm,0.5\nq_delta,1\nstrict_gap,1\nlambda_sign,positive\n",
        id="nonexistence",
    ),
    pytest.param(
        [("quantity", "value"), ("sobolev_constant", 0.1), ("energy_threshold", 2.0 / 3.0)],
        "quantity,value\nsobolev_constant,0.10000000000000001\n"
        "energy_threshold,0.66666666666666663\n",
        id="sobolev",
    ),
]


class TestCsv:
    def test_float_format_roundtrip(self):
        rng = np.random.default_rng(0)
        samples = list(rng.standard_normal(50)) + [1e-308, 1e308, 0.1, 2.0 / 3.0, np.pi]
        for x in samples:
            assert float(fmt_float(x)) == float(x)

    @pytest.mark.parametrize("report, expected", CSV_CASES)
    def test_report_csv_cells(self, tmp_path, report, expected):
        path = tmp_path / "report.csv"
        if isinstance(report, list):  # sobolev.csv: plain rows, no report object
            rows = report
            write_rows(path, rows)
        else:
            rows = report.rows()
            write_report_csv(report, path)
        text = path.read_bytes().decode("utf-8")
        assert text == expected
        for raw, line in zip(rows, text.splitlines()):
            for x, cell in zip(raw, line.split(",")):
                if isinstance(x, float):
                    assert float(cell) == x
                elif isinstance(x, tuple):
                    assert tuple(float(c) for c in cell.split()) == x

    def test_fieldio_imports_no_algorithms(self):
        tree = ast.parse(Path(csgs.fieldio.__file__).read_text(encoding="utf-8"))
        relative = {
            node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
        }
        assert relative <= {"errors", "grid"}


class TestCli:
    def _write(self, tmp_path, text, name="run.cfg"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    def test_validate_model_pair_exit0(self, tmp_path, capsys):
        cfg = self._write(tmp_path, MODEL_PAIR_CFG)
        code = run_cli(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "C = 2" in out
        assert (tmp_path / "out" / "validation_report.csv").exists()

    def test_validate_negative_potential_on_dirichlet_grid_exit2(self, tmp_path):
        # V1 = -2 on 64 interior nodes with h = 1/8: nu1 = -2 + (2 - 2 cos(pi/65)) / h^2
        text = BASE_CFG.replace("points_per_dim = 64", "points_per_dim = 64\nboundary = dirichlet\n"
                                "laplacian = fd2").replace("value = 1.0", "value = -2.0", 1)
        cfg = self._write(tmp_path, text)
        code = run_cli(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        rows = {r["assumption"]: r for r in read_csv_rows(tmp_path / "out" / "validation_report.csv")}
        nu1 = -2.0 + 64.0 * (2.0 - 2.0 * math.cos(math.pi / 65))
        assert float(rows["nu1"]["worst_value"]) == pytest.approx(nu1, abs=1e-10)  # -1.8505

    def test_solve_zero_budget_exit3(self, tmp_path):
        cfg = self._write(tmp_path, BASE_CFG.replace("max_iters = 2000", "max_iters = 0"))
        code = run_cli(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 3
        rows = read_csv_rows(tmp_path / "out" / "solve_trace.csv")
        assert len(rows) == 1  # header plus the initial projected state

    def test_solve_from_non_finite_file_exit1(self, tmp_path, grid_1d, capsys):
        fp = random_pair(grid_1d)
        fp.v[3] = np.inf
        field = tmp_path / "start.csgs"
        write_field(fp, field)
        text = BASE_CFG.replace("grad_tol = 1e-6", f"grad_tol = 1e-6\ninit = file\ninit_file = {field}")
        cfg = self._write(tmp_path, text)
        code = run_cli(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("start, mu", [("zero", "1.0"), ("u-only", "0.0"), ("huge", "1.0")])
    def test_solve_from_a_start_without_a_fibering_scale_exit3(self, tmp_path, grid_1d, start, mu):
        # the zero pair; u alone at mu = 0; u = v = 1e80 exp(-x^2), whose ||v||_4^4 overflows
        bump = np.exp(-grid_1d.radius_sq)
        u, v = {"zero": (0.0 * bump, 0.0 * bump), "u-only": (bump, 0.0 * bump),
                "huge": (1e80 * bump, 1e80 * bump)}[start]
        field = tmp_path / "start.csgs"
        write_field(FieldPair(u, v, grid_1d), field)
        text = BASE_CFG.replace("mu = 1.0", f"mu = {mu}").replace(
            "grad_tol = 1e-6", f"grad_tol = 1e-6\ninit = file\ninit_file = {field}")
        out = tmp_path / "out"
        assert run_cli(["solve", "--config", self._write(tmp_path, text), "--out", str(out)]) == 3
        assert len(read_csv_rows(out / "solve_trace.csv")) == 1  # the start, unscaled
        back = read_field(out / "field.csgs")
        assert np.array_equal(back.u, u) and np.array_equal(back.v, v)

    def test_sweep_exit0(self, tmp_path):
        from csgs import sample_potentials, sweep_mu

        text = BASE_CFG + "\n[sweep]\nmu_values = 0.5, 1.0, 2.0\n"
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", self._write(tmp_path, text), "--out", str(out)]) == 0
        cfg = parse_config(text)
        grid = build_grid(cfg.grid)
        ps = sample_potentials(cfg.pot_defs, cfg.delta, grid)
        sweep = sweep_mu(ps, cfg.problem, grid, cfg.mu_values, cfg.solver)
        rows = read_csv_rows(out / "sweep.csv")
        assert [float(r["c"]) for r in rows] == sweep.energies
        assert all(r["threshold"] == r["below_threshold"] == "" for r in rows)

    def test_sobolev_exit0(self, tmp_path):
        from csgs import aubin_talenti_bubble, estimate_sobolev_constant, sobolev_quotient
        from csgs.solver import compactness_threshold

        text = MODEL_PAIR_CFG.replace("half_width = 2.0\npoints_per_dim = 8",
                                      "half_width = 4.0\npoints_per_dim = 16")
        out = tmp_path / "out"
        assert run_cli(["sobolev", "--config", self._write(tmp_path, text), "--out", str(out)]) == 0
        grid = build_grid(GridSpec(3, 4.0, 16))
        estimate = estimate_sobolev_constant(grid)
        rows = {r["quantity"]: float(r["value"]) for r in read_csv_rows(out / "sobolev.csv")}
        assert rows == {
            "sobolev_constant": estimate,
            "bubble_quotient": sobolev_quotient(aubin_talenti_bubble(grid), grid),
            "energy_threshold": compactness_threshold(estimate, 3),
        }

    def test_pohozaev_of_the_bubble_exit0(self, tmp_path, grid_3d_small):
        from csgs import aubin_talenti_bubble, pohozaev_residual, sample_potentials

        text = MODEL_PAIR_CFG + "\n[pohozaev]\nbubble = true\n"
        cfg = parse_config(text)
        out = tmp_path / "out"
        assert run_cli(["pohozaev", "--config", self._write(tmp_path, text), "--out", str(out)]) == 0
        ps = sample_potentials(cfg.pot_defs, cfg.delta, grid_3d_small)
        fp = FieldPair(np.zeros(grid_3d_small.shape), aubin_talenti_bubble(grid_3d_small),
                       grid_3d_small)
        rows = {r["quantity"]: r["value"] for r in read_csv_rows(out / "pohozaev.csv")}
        assert float(rows["lhs"]) == pohozaev_residual(fp, ps, cfg.problem, grid_3d_small).lhs

    def test_convergence_error_exit3(self, tmp_path, capsys, monkeypatch):
        import csgs.cli
        from csgs.errors import ConvergenceError

        def stalled(grid):
            raise ConvergenceError("Sobolev polish still descending")

        monkeypatch.setattr(csgs.cli, "estimate_sobolev_constant", stalled)
        cfg = self._write(tmp_path, MODEL_PAIR_CFG)
        assert run_cli(["sobolev", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "error: Sobolev polish still descending\n"

    def test_sweep_without_list_exit1(self, tmp_path, capsys):
        cfg = self._write(tmp_path, BASE_CFG)
        code = run_cli(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1

    def test_sweep_empty_list_exit1(self, tmp_path, capsys):
        cfg = self._write(tmp_path, BASE_CFG + "\n[sweep]\nmu_values =\n")
        code = run_cli(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "non-empty" in capsys.readouterr().err

    def test_sweep_with_init_file_exit1(self, tmp_path, capsys):
        absent = tmp_path / "absent.csgs"
        text = BASE_CFG.replace("grad_tol = 1e-6", f"grad_tol = 1e-6\ninit = file\ninit_file = {absent}")
        cfg = self._write(tmp_path, text + "\n[sweep]\nmu_values = 1.0\n")
        code = run_cli(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "solver.init" in capsys.readouterr().err

    def test_compare_with_init_file_exit1(self, tmp_path, capsys):
        field = tmp_path / "start.csgs"
        write_field(random_pair(build_grid(GridSpec(1, 4.0, 64))), field)
        text = ASYM_CFG + f"[solver]\ninit = file\ninit_file = {field}\n"
        cfg = self._write(tmp_path, text)
        code = run_cli(["compare", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "solver.init" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "solve", "sweep", "compare"])
    def test_non_periodic_reference_exit2(self, tmp_path, capsys, command):
        cfg = self._write(tmp_path, GAUSSIAN_REFERENCE_CFG + "[sweep]\nmu_values = 1.0\n")
        code = run_cli([command, "--config", cfg, "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 2
        assert "[FAIL] ref:V1:periodicity" in out
        assert out.count("[FAIL]") == 1
        rows = read_csv_rows(tmp_path / "out" / "validation_report.csv")
        assert [r["passed"] for r in rows if r["assumption"] == "ref:V1:periodicity"] == ["false"]

    @pytest.mark.parametrize("mode, coupling", [("asymptotic", "V6:coupling"),
                                                ("asymptotic-strict", "V6':coupling")])
    def test_compare_validates_once_in_its_mode(self, tmp_path, mode, coupling):
        text = ASYM_CFG.replace("mode = asymptotic", f"mode = {mode}")
        cfg = self._write(tmp_path, text + "[solver]\nmax_iters = 2000\ngrad_tol = 1e-6\n")
        out = tmp_path / "out"
        assert run_cli(["compare", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(f.name for f in out.iterdir()) == ["compare.csv", "validation_report.csv"]
        assert read_csv_rows(out / "compare.csv")[0]["passed"] == "true"
        names = [r["assumption"] for r in read_csv_rows(out / "validation_report.csv")]
        assert coupling in names and "ref:V1:periodicity" in names

    def test_compare_in_periodic_mode_exit1(self, tmp_path, capsys):
        cfg = self._write(tmp_path, ASYM_CFG.replace("mode = asymptotic", "mode = periodic"))
        code = run_cli(["compare", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "asymptotic" in capsys.readouterr().err

    def test_solve_with_infinite_tolerance_exit1(self, tmp_path, capsys):
        cfg = self._write(tmp_path, NON_FINITE_CASES["solver.grad_tol"]("inf"))
        code = run_cli(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "solver.grad_tol" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_removed_solver_key_exit1(self, tmp_path, capsys):
        cfg = self._write(tmp_path, BASE_CFG + "armijo_factor = 0.5\n")
        code = run_cli(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "solver.armijo_factor" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_pohozaev_samples_each_radial_derivative_once(self, tmp_path, grid_3d_small, monkeypatch):
        # a strictly positive candidate runs the residual, the validation and the certificate
        trial = np.exp(-grid_3d_small.radius_sq)
        field = tmp_path / "candidate.csgs"
        write_field(FieldPair(trial, 0.5 * trial + 0.1, grid_3d_small), field)
        cfg = self._write(tmp_path, MODEL_PAIR_CFG + f"\n[pohozaev]\nfield = {field}\n")
        sampled = []
        inner = PotentialDef.radial_derivative

        def counting(self, coords, spacing):
            sampled.append(self.params)
            return inner(self, coords, spacing)

        monkeypatch.setattr(PotentialDef, "radial_derivative", counting)
        out = tmp_path / "out"
        assert run_cli(["pohozaev", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "nonexistence.csv").exists()
        assert sampled == [(0.5,), (0.5,), (-0.25,)]

    def test_validation_failure_exit2(self, tmp_path):
        bad = BASE_CFG.replace("value = 0.3", "value = 2.0")  # coupling above the bound
        cfg = self._write(tmp_path, bad)
        code = run_cli(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("half_width", ["1e-120", "1e200"])
    def test_solve_on_degenerate_cell_exit1(self, tmp_path, capsys, half_width):
        # the cell volume h^3 underflowed to 0 or overflowed in build_grid
        text = BASE_CFG.replace("dim = 1\nhalf_width = 4.0\npoints_per_dim = 64",
                                f"dim = 3\nhalf_width = {half_width}\npoints_per_dim = 8")
        cfg = self._write(tmp_path, text)
        code = run_cli(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "[grid]" in err
        assert not (tmp_path / "out" / "field.csgs").exists()

    @pytest.mark.parametrize("command, text, code, says", [
        ("validate", BASE_CFG.replace("points_per_dim = 64", "points_per_dim = 6.5"), 1,
         "points_per_dim must be an integer"),
        ("pohozaev", MODEL_PAIR_CFG + "\n[pohozaev]\nbubble = maybe\n", 1,
         "bubble must be a boolean"),
        ("validate", BASE_CFG.replace("kind = constant", "kind = banana", 1), 1,
         "v1.kind must be one of"),
        ("validate", BASE_CFG.replace("kind = constant\nvalue = 1.0",
                                      "kind = gaussian\nbase = 1.0\namp = 0.5\nsigma = 0", 1), 1,
         "width must be positive"),
        ("validate", BASE_CFG.replace("[grid]", "[grid", 1), 1, "config syntax error"),
        ("validate", BASE_CFG.replace("mode = periodic", "mode = periodic\ntail_tol = -1"), 1,
         "tail_tol must be positive"),
        ("sweep", BASE_CFG + "\n[sweep]\nmu_values = -1, 1\n", 1,
         "mu_values must be nonnegative"),
        ("pohozaev", MODEL_PAIR_CFG + "\n[pohozaev]\nbubble = true\nbubble_scale = 0\n", 1,
         "bubble_scale must be positive"),
        ("pohozaev", MODEL_PAIR_CFG + "\n[pohozaev]\nbubble = false\n", 1,
         "pohozaev section needs"),
        ("pohozaev", MODEL_PAIR_CFG, 1, "pohozaev command needs"),
        ("validate", BASE_CFG.replace("mode = periodic", "mode = asymptotic"), 1,
         "requires [reference.*] sections"),
        ("sobolev", BASE_CFG, 1, "requires d = 3"),  # the generic CsgsError exit
        ("compare", ASYM_CFG + "[solver]\nmax_iters = 1\n", 3, "iters=1 [budget]"),
        ("pohozaev", MODEL_PAIR_CFG.replace("coeff = 0.5", "coeff = -0.5", 1)
         + "\n[pohozaev]\nbubble = true\n", 2, "[FAIL] V7:V1"),
    ], ids=["non-integer-points", "bad-boolean", "unknown-kind", "zero-sigma", "syntax-error",
            "negative-tail-tol", "negative-mu", "zero-bubble-scale", "pohozaev-without-source",
            "pohozaev-without-section", "asymptotic-without-reference", "sobolev-in-1d",
            "compare-not-converged", "pohozaev-fails-v7"])
    def test_config_and_command_exits(self, tmp_path, capsys, command, text, code, says):
        cfg = self._write(tmp_path, text)
        assert run_cli([command, "--config", cfg, "--out", str(tmp_path / "out")]) == code
        out, err = capsys.readouterr()
        assert says in (err if code == 1 else out)

    def test_missing_config_exit1(self, tmp_path):
        code = run_cli(["solve", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1

    def test_solve_writes_field_and_trace(self, tmp_path):
        cfg = self._write(tmp_path, BASE_CFG)
        out = tmp_path / "out"
        code = run_cli(["solve", "--config", cfg, "--out", str(out)])
        assert code == 0
        rows = read_csv_rows(out / "solve_trace.csv")
        assert float(rows[-1]["grad_norm"]) <= 1e-6
        fp = read_field(out / "field.csgs")
        assert fp.grid.spec.points_per_dim == 64

    def test_seed_override_changes_random_init(self, tmp_path):
        cfg_text = BASE_CFG + "\n"
        cfg_text = cfg_text.replace("grad_tol = 1e-6", "grad_tol = 1e-6\ninit = random\nseed = 0")
        cfg = self._write(tmp_path, cfg_text)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli(["solve", "--config", cfg, "--out", str(out1)]) == 0
        assert run_cli(["solve", "--config", cfg, "--out", str(out2), "--seed", "3"]) == 0
        r1 = read_csv_rows(out1 / "solve_trace.csv")
        r2 = read_csv_rows(out2 / "solve_trace.csv")
        assert r1[0]["energy"] != r2[0]["energy"]  # different random starts
