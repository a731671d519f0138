"""Command-line front end.

Subcommands: validate, solve, sweep, compare, pohozaev, sobolev.  Exit
codes: 0 success, 1 config or IO error, 2 assumption validation failure,
3 solver non-convergence.  Human-readable summaries go to stdout; machine
artifacts (CSV reports, field files) land in the output directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, parse_config
from .diagnostics import nonexistence_certificate, pohozaev_residual
from .errors import ConfigError, ConvergenceError, CsgsError, FieldFileError
from .fieldio import fmt_float, read_field, write_field, write_report_csv, write_rows
from .grid import FieldPair, Grid, build_grid
from .potentials import ValidationReport, sample_potentials, validate_assumptions
from .solver import (
    SolveReport,
    aubin_talenti_bubble,
    compactness_threshold,
    compare_energies,
    estimate_sobolev_constant,
    minimize_ground_state,
    sobolev_quotient,
    sweep_mu,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGED = 3


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="csgs",
        description="Ground states of linearly coupled Schrodinger systems "
        "on truncated grids, with inequality diagnostics.",
    )
    ap.add_argument("command", choices=["validate", "solve", "sweep", "compare", "pohozaev", "sobolev"])
    ap.add_argument("--config", required=True, help="path to the run configuration")
    ap.add_argument("--out", default=None, help="output directory (default: config or ./out)")
    ap.add_argument("--seed", type=int, default=None, help="override the configured solver seed")
    return ap


def _print_validation(rep: ValidationReport) -> None:
    for c in rep.checks:
        status = "pass" if c.passed else "FAIL"
        loc = "" if c.worst_node is None else f" at x={tuple(round(x, 6) for x in c.worst_node)}"
        note = f" ({c.note})" if c.note else ""
        print(f"  [{status}] {c.name}: worst={c.worst_value:.6g}{loc}{note}")
    if rep.nu1 is not None:
        print(f"  nu1={rep.nu1:.8g} nu2={rep.nu2:.8g}")
    print(f"validation {rep.mode}: {'PASS' if rep.overall else 'FAIL'}")


def _validate(cfg: RunConfig, grid: Grid, out: Path, *, compute_nu: bool) -> tuple[int, object]:
    ps = sample_potentials(cfg.pot_defs, cfg.delta, grid)
    reference = None
    if cfg.mode in ("asymptotic", "asymptotic-strict"):
        if cfg.reference_defs is None:
            raise ConfigError("asymptotic validation requires [reference.*] sections")
        reference = sample_potentials(cfg.reference_defs, cfg.delta, grid)
    rep = validate_assumptions(
        ps, cfg.mode, reference=reference, tail_tol=cfg.tail_tol,
        compute_nu=compute_nu,
    )
    write_report_csv(rep, out / "validation_report.csv")
    return (EXIT_OK if rep.overall else EXIT_VALIDATION), (ps, reference, rep)


def _cmd_validate(cfg: RunConfig, grid: Grid, out: Path) -> int:
    code, (_, _, rep) = _validate(cfg, grid, out, compute_nu=True)
    _print_validation(rep)
    return code


def _solve_summary(tag: str, rep: SolveReport) -> None:
    print(
        f"{tag}: converged={rep.converged} c={fmt_float(rep.energy)} "
        f"grad_norm={rep.grad_norm:.3e} iters={rep.iterations}"
        + (f" [{rep.failure}]" if rep.failure else "")
    )


def _cmd_solve(cfg: RunConfig, grid: Grid, out: Path) -> int:
    code, (ps, _, rep_val) = _validate(cfg, grid, out, compute_nu=False)
    if code != EXIT_OK:
        _print_validation(rep_val)
        return code
    init_field = None
    if cfg.solver.init == "file":
        init_field = read_field(cfg.solver.init_path, grid)
    report = minimize_ground_state(ps, cfg.problem, grid, cfg.solver, init_field=init_field)
    write_report_csv(report, out / "solve_trace.csv")
    write_field(report.field, out / "field.csgs")
    _solve_summary("solve", report)
    return EXIT_OK if report.converged else EXIT_NONCONVERGED


def _no_init_file(cfg: RunConfig, command: str) -> None:
    if cfg.solver.init == "file":
        raise ConfigError(
            f"{command} command does not read solver.init_file; set solver.init to "
            "gaussian-bump or random"
        )


def _cmd_sweep(cfg: RunConfig, grid: Grid, out: Path) -> int:
    if cfg.mu_values is None:
        raise ConfigError("sweep command requires a [sweep] section with mu_values")
    _no_init_file(cfg, "sweep")
    code, (ps, _, rep_val) = _validate(cfg, grid, out, compute_nu=False)
    if code != EXIT_OK:
        _print_validation(rep_val)
        return code
    sweep = sweep_mu(ps, cfg.problem, grid, cfg.mu_values, cfg.solver)
    write_report_csv(sweep, out / "sweep.csv")
    thr = "none" if sweep.threshold is None else fmt_float(sweep.threshold)
    print(f"sweep: threshold={thr} mu0_estimate={sweep.mu0_estimate}")
    for mu, c, ok in zip(sweep.mu_values, sweep.energies, sweep.converged):
        print(f"  mu={fmt_float(mu)}: c={fmt_float(c)} converged={ok}")
    return EXIT_OK if all(sweep.converged) else EXIT_NONCONVERGED


def _cmd_compare(cfg: RunConfig, grid: Grid, out: Path) -> int:
    if cfg.mode not in ("asymptotic", "asymptotic-strict"):
        raise ConfigError("compare command requires mode = asymptotic or asymptotic-strict, "
                          f"got {cfg.mode!r}")
    _no_init_file(cfg, "compare")
    code, (ps_asym, ps_ref, rep_val) = _validate(cfg, grid, out, compute_nu=False)
    if code != EXIT_OK:
        _print_validation(rep_val)
        return code

    solve_per = minimize_ground_state(ps_ref, cfg.problem, grid, cfg.solver)
    solve_asym = minimize_ground_state(ps_asym, cfg.problem, grid, cfg.solver)
    _solve_summary("periodic", solve_per)
    _solve_summary("asymptotic", solve_asym)
    if not (solve_per.converged and solve_asym.converged):
        return EXIT_NONCONVERGED
    cmp_rep = compare_energies(solve_per, solve_asym)
    write_report_csv(cmp_rep, out / "compare.csv")
    print(
        f"compare: c_periodic={fmt_float(cmp_rep.c_periodic)} "
        f"c_asym={fmt_float(cmp_rep.c_asym)} gap={fmt_float(cmp_rep.gap)} "
        f"passed={cmp_rep.passed}"
    )
    return EXIT_OK


def _cmd_pohozaev(cfg: RunConfig, grid: Grid, out: Path) -> int:
    ps = sample_potentials(cfg.pot_defs, cfg.delta, grid)
    if cfg.pohozaev_field is not None:
        fp = read_field(cfg.pohozaev_field, grid)
    elif cfg.pohozaev_bubble:
        v = aubin_talenti_bubble(grid, cfg.bubble_scale)
        fp = FieldPair(np.zeros(grid.shape), v, grid)
    else:
        raise ConfigError("pohozaev command needs [pohozaev] field or bubble = true")
    rep = pohozaev_residual(fp, ps, cfg.problem, grid)
    write_report_csv(rep, out / "pohozaev.csv")
    print(
        f"pohozaev: lhs={fmt_float(rep.lhs)} rhs={fmt_float(rep.rhs)} "
        f"relative={rep.relative:.6g} near_critical={rep.near_critical} "
        f"shell_max={rep.boundary_shell_max:.3e}"
    )
    if cfg.mode == "nonexistence":
        val = validate_assumptions(ps, "nonexistence")
        write_report_csv(val, out / "validation_report.csv")
        if not val.overall:
            _print_validation(val)
            return EXIT_VALIDATION
        if np.all(fp.u > 0) and np.all(fp.v > 0):
            cert = nonexistence_certificate(fp, ps, cfg.problem, grid)
            write_report_csv(cert, out / "nonexistence.csv")
            print(
                f"certificate: Q={fmt_float(cert.q_value)} (nonneg={cert.q_nonneg_ok}) "
                f"pohozaev_side={fmt_float(cert.pohozaev_side)} margin={fmt_float(cert.margin)}"
            )
    return EXIT_OK


def _cmd_sobolev(cfg: RunConfig, grid: Grid, out: Path) -> int:
    estimate = estimate_sobolev_constant(grid)
    bubble_q = sobolev_quotient(aubin_talenti_bubble(grid), grid)
    threshold = compactness_threshold(estimate, grid.spec.dim)
    rows = [
        ("quantity", "value"),
        ("sobolev_constant", estimate),
        ("bubble_quotient", bubble_q),
        ("energy_threshold", threshold),
    ]
    write_rows(out / "sobolev.csv", rows)
    print(
        f"sobolev: estimate={fmt_float(estimate)} bubble_quotient={fmt_float(bubble_q)} "
        f"threshold={fmt_float(threshold)}"
    )
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "pohozaev": _cmd_pohozaev,
    "sobolev": _cmd_sobolev,
}


def run_cli(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(text)
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
        out = Path(args.out) if args.out is not None else Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        grid = build_grid(cfg.grid)
        return _COMMANDS[args.command](cfg, grid, out)
    except (ConfigError, FieldFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except CsgsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
