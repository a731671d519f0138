"""Run configuration: line-oriented ``key = value`` files with sections.

The format is deliberately plain INI so configs stay hand-editable and
trivially parseable from any language.  Parsing validates every range
constraint of the owning types and names the offending ``section.key`` in
each error; the canonical serialization round-trips floats exactly and is
idempotent under parse -> serialize -> parse.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, replace

from .errors import ConfigError
from .fieldio import fmt_float
from .functional import ProblemSpec
from .grid import GridSpec
from .potentials import KIND_PARAMS, VALIDATION_MODES, PotentialDef
from .solver import SolveOptions


@dataclass
class RunConfig:
    grid: GridSpec
    problem: ProblemSpec
    pot_defs: tuple[PotentialDef, PotentialDef, PotentialDef]
    delta: float
    mode: str
    solver: SolveOptions
    tail_tol: float = 1e-2
    reference_defs: tuple[PotentialDef, PotentialDef, PotentialDef] | None = None
    mu_values: list[float] | None = None
    pohozaev_field: str | None = None
    pohozaev_bubble: bool = False
    bubble_scale: float = 1.0
    out_dir: str = "out"

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, solver=replace(self.solver, seed=seed))


def _finite_float(text: str, name: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be a finite number, got {text!r}")
    return x


class _Reader:
    """configparser wrapper that tracks which keys were consumed."""

    def __init__(self, parser: configparser.ConfigParser, section: str):
        self.parser = parser
        self.section = section
        self.seen: set[str] = set()

    def has(self, key: str) -> bool:
        return self.parser.has_option(self.section, key)

    def raw(self, key: str, default=None, required=False):
        if not self.has(key):
            if required:
                raise ConfigError(f"missing required key {self.section}.{key}")
            return default
        self.seen.add(key)
        return self.parser.get(self.section, key)

    def floatv(self, key: str, default=None, required=False):
        s = self.raw(key, None, required)
        if s is None:
            return default
        return _finite_float(s, f"{self.section}.{key}")

    def intv(self, key: str, default=None, required=False):
        s = self.raw(key, None, required)
        if s is None:
            return default
        try:
            return int(s)
        except ValueError:
            raise ConfigError(f"{self.section}.{key} must be an integer, got {s!r}") from None

    def boolv(self, key: str, default=False):
        s = self.raw(key)
        if s is None:
            return default
        low = s.strip().lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"{self.section}.{key} must be a boolean, got {s!r}")

    def check_consumed(self) -> None:
        extra = set(self.parser.options(self.section)) - self.seen
        if extra:
            key = sorted(extra)[0]
            raise ConfigError(f"unknown key {self.section}.{key}")


def _parse_potential(parser: configparser.ConfigParser, section: str) -> PotentialDef:
    if not parser.has_section(section):
        raise ConfigError(f"missing section [{section}]")
    r = _Reader(parser, section)
    kind = r.raw("kind", required=True)
    if kind not in KIND_PARAMS:
        raise ConfigError(
            f"{section}.kind must be one of {sorted(KIND_PARAMS)}, got {kind!r}"
        )
    params = tuple(r.floatv(name, required=True) for name in KIND_PARAMS[kind])
    r.check_consumed()
    try:
        return PotentialDef(kind, params)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from None


def _parse_potential_triple(parser, prefix: str):
    return (
        _parse_potential(parser, f"{prefix}.v1"),
        _parse_potential(parser, f"{prefix}.v2"),
        _parse_potential(parser, f"{prefix}.lambda"),
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    for required in ("grid", "problem", "potentials"):
        if not parser.has_section(required):
            raise ConfigError(f"missing section [{required}]")

    g = _Reader(parser, "grid")
    try:
        grid = GridSpec(
            dim=g.intv("dim", required=True),
            half_width=g.floatv("half_width", required=True),
            points_per_dim=g.intv("points_per_dim", required=True),
            boundary=g.raw("boundary", "periodic"),
            laplacian_mode=g.raw("laplacian", "spectral"),
        )
    except ValueError as exc:
        raise ConfigError(f"[grid]: {exc}") from None
    g.check_consumed()

    p = _Reader(parser, "problem")
    try:
        problem = ProblemSpec(
            dim=grid.dim,
            p=p.floatv("p", required=True),
            q=p.floatv("q", required=True),
            mu=p.floatv("mu", required=True),
        )
    except ValueError as exc:
        raise ConfigError(f"[problem]: {exc}") from None
    p.check_consumed()

    pots = _Reader(parser, "potentials")
    delta = pots.floatv("delta", required=True)
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"potentials.delta must lie in (0, 1), got {delta}")
    mode = pots.raw("mode", "periodic")
    if mode not in VALIDATION_MODES:
        raise ConfigError(
            f"potentials.mode must be one of {sorted(VALIDATION_MODES)}, got {mode!r}"
        )
    tail_tol = pots.floatv("tail_tol", 1e-2)
    if not tail_tol > 0:
        raise ConfigError(f"potentials.tail_tol must be positive, got {tail_tol}")
    pots.check_consumed()

    pot_defs = _parse_potential_triple(parser, "potential")

    reference_defs = None
    if parser.has_section("reference.v1"):
        reference_defs = _parse_potential_triple(parser, "reference")

    solver = SolveOptions()
    if parser.has_section("solver"):
        s = _Reader(parser, "solver")
        kwargs = {}
        if s.has("max_iters"):
            kwargs["max_iters"] = s.intv("max_iters")
        if s.has("grad_tol"):
            kwargs["grad_tol"] = s.floatv("grad_tol")
        if s.has("seed"):
            kwargs["seed"] = s.intv("seed")
        if s.has("init"):
            kwargs["init"] = s.raw("init")
        if s.has("init_file"):
            kwargs["init_path"] = s.raw("init_file")
        try:
            solver = SolveOptions(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"[solver]: {exc}") from None
        s.check_consumed()

    mu_values = None
    if parser.has_section("sweep"):
        s = _Reader(parser, "sweep")
        rawv = s.raw("mu_values", required=True)
        items = [t.strip() for t in rawv.split(",") if t.strip()]
        if not items:
            raise ConfigError("sweep.mu_values must be non-empty")
        mu_values = [_finite_float(t, "sweep.mu_values") for t in items]
        if any(m < 0 for m in mu_values):
            raise ConfigError("sweep.mu_values must be nonnegative")
        if any(b <= a for a, b in zip(mu_values, mu_values[1:])):
            raise ConfigError("sweep.mu_values must be strictly increasing")
        s.check_consumed()

    pohozaev_field = None
    pohozaev_bubble = False
    bubble_scale = 1.0
    if parser.has_section("pohozaev"):
        s = _Reader(parser, "pohozaev")
        pohozaev_field = s.raw("field")
        pohozaev_bubble = s.boolv("bubble", False)
        bubble_scale = s.floatv("bubble_scale", 1.0)
        if not bubble_scale > 0:
            raise ConfigError(f"pohozaev.bubble_scale must be positive, got {bubble_scale}")
        if pohozaev_field is None and not pohozaev_bubble:
            raise ConfigError("pohozaev section needs either 'field' or 'bubble = true'")
        s.check_consumed()

    out_dir = "out"
    if parser.has_section("output"):
        s = _Reader(parser, "output")
        out_dir = s.raw("dir", "out")
        s.check_consumed()

    return RunConfig(
        grid=grid,
        problem=problem,
        pot_defs=pot_defs,
        delta=delta,
        mode=mode,
        solver=solver,
        tail_tol=tail_tol,
        reference_defs=reference_defs,
        mu_values=mu_values,
        pohozaev_field=pohozaev_field,
        pohozaev_bubble=pohozaev_bubble,
        bubble_scale=bubble_scale,
        out_dir=out_dir,
    )


def _emit_potential(out: io.StringIO, section: str, d: PotentialDef) -> None:
    if d.kind not in KIND_PARAMS:
        raise ConfigError(f"potential kind {d.kind!r} has no config representation")
    out.write(f"[{section}]\n")
    out.write(f"kind = {d.kind}\n")
    for name, val in zip(KIND_PARAMS[d.kind], d.params):
        out.write(f"{name} = {fmt_float(val)}\n")
    out.write("\n")


def canonical_config(cfg: RunConfig) -> str:
    """Serialize to the canonical form (fixed section and key order)."""
    out = io.StringIO()
    out.write("[grid]\n")
    out.write(f"dim = {cfg.grid.dim}\n")
    out.write(f"half_width = {fmt_float(cfg.grid.half_width)}\n")
    out.write(f"points_per_dim = {cfg.grid.points_per_dim}\n")
    out.write(f"boundary = {cfg.grid.boundary}\n")
    out.write(f"laplacian = {cfg.grid.laplacian_mode}\n\n")

    out.write("[problem]\n")
    out.write(f"p = {fmt_float(cfg.problem.p)}\n")
    out.write(f"q = {fmt_float(cfg.problem.q)}\n")
    out.write(f"mu = {fmt_float(cfg.problem.mu)}\n\n")

    out.write("[potentials]\n")
    out.write(f"delta = {fmt_float(cfg.delta)}\n")
    out.write(f"mode = {cfg.mode}\n")
    out.write(f"tail_tol = {fmt_float(cfg.tail_tol)}\n\n")

    for section, d in zip(("potential.v1", "potential.v2", "potential.lambda"), cfg.pot_defs):
        _emit_potential(out, section, d)
    if cfg.reference_defs is not None:
        for section, d in zip(
            ("reference.v1", "reference.v2", "reference.lambda"), cfg.reference_defs
        ):
            _emit_potential(out, section, d)

    s = cfg.solver
    out.write("[solver]\n")
    out.write(f"max_iters = {s.max_iters}\n")
    out.write(f"grad_tol = {fmt_float(s.grad_tol)}\n")
    out.write(f"seed = {s.seed}\n")
    out.write(f"init = {s.init}\n")
    if s.init_path is not None:
        out.write(f"init_file = {s.init_path}\n")
    out.write("\n")

    if cfg.mu_values is not None:
        out.write("[sweep]\n")
        out.write("mu_values = " + ", ".join(fmt_float(m) for m in cfg.mu_values) + "\n\n")

    if cfg.pohozaev_field is not None or cfg.pohozaev_bubble:
        out.write("[pohozaev]\n")
        if cfg.pohozaev_field is not None:
            out.write(f"field = {cfg.pohozaev_field}\n")
        if cfg.pohozaev_bubble:
            out.write("bubble = true\n")
        out.write(f"bubble_scale = {fmt_float(cfg.bubble_scale)}\n")
        out.write("\n")

    out.write("[output]\n")
    out.write(f"dir = {cfg.out_dir}\n")
    return out.getvalue()
