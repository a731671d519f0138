import struct

import numpy as np
import pytest

from csgs import GridSpec, PotentialDef, build_grid, read_field, write_field
from csgs.cli import run_cli
from csgs.config import canonical_config, parse_config
from csgs.errors import ConfigError, FieldFileError
from csgs.fieldio import fmt_float, read_csv_rows, write_report_csv

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

    def test_sweep_list_validation(self):
        good = parse_config(BASE_CFG + "\n[sweep]\nmu_values = 0.5, 1, 2\n")
        assert good.mu_values == [0.5, 1.0, 2.0]
        with pytest.raises(ConfigError, match="non-empty"):
            parse_config(BASE_CFG + "\n[sweep]\nmu_values =\n")
        with pytest.raises(ConfigError, match="increasing"):
            parse_config(BASE_CFG + "\n[sweep]\nmu_values = 2, 1\n")

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


class TestCsv:
    def test_float_format_roundtrip(self):
        rng = np.random.default_rng(0)
        samples = list(rng.standard_normal(50)) + [1e-308, 1e308, 0.1, 2.0 / 3.0, np.pi]
        for x in samples:
            assert float(fmt_float(x)) == float(x)

    def test_sweep_csv_schema(self, tmp_path):
        from csgs.solver import MuSweep

        sweep = MuSweep([0.5, 1.0, 2.0], [3.0, 2.0, 1.0], 1.5, 2.0, [True, True, True], [])
        path = tmp_path / "sweep.csv"
        write_report_csv(sweep, path)
        rows = read_csv_rows(path)
        assert len(rows) == 3
        assert set(rows[0]) == {"mu", "c", "threshold", "below_threshold"}
        assert rows[2]["below_threshold"] == "true"
        assert float(rows[0]["c"]) == 3.0


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

    def test_sweep_without_list_exit1(self, tmp_path, capsys):
        cfg = self._write(tmp_path, BASE_CFG)
        code = run_cli(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1

    def test_sweep_empty_list_exit1(self, tmp_path, capsys):
        cfg = self._write(tmp_path, BASE_CFG + "\n[sweep]\nmu_values =\n")
        code = run_cli(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "non-empty" in capsys.readouterr().err

    def test_validation_failure_exit2(self, tmp_path):
        bad = BASE_CFG.replace("value = 0.3", "value = 2.0")  # coupling above the bound
        cfg = self._write(tmp_path, bad)
        code = run_cli(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2

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
