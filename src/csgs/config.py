"""Run configuration: line-oriented ``key = value`` files with sections.

The format is deliberately plain INI so configs stay hand-editable.  The
schema is the owning types' fields: ``[grid]``, ``[problem]`` and ``[solver]``
hold one key per field of ``GridSpec``, ``ProblemSpec`` (its ``dim`` comes
from the grid) and ``SolveOptions``, typed by the field's annotation and
defaulting to its default, so a new field is a new key; the other sections
hold ``RunConfig``'s own keys.  Parsing rejects unknown sections and keys and
names the offending ``section.key`` in each error; the canonical form
round-trips floats exactly and is idempotent under parse -> serialize -> parse.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, fields, replace

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


_KEY = {"laplacian_mode": "laplacian", "init_path": "init_file"}  # keys named unlike their fields


def _owned(cls) -> list:
    """(field, key, type, default) per field of an owning type; MISSING marks a required key."""
    return [(f.name, _KEY.get(f.name, f.name), f.type, f.default) for f in fields(cls)]


# (section, the type owning its keys or None for RunConfig's own, keys), in canonical order
_SCHEMA = (
    ("grid", GridSpec, _owned(GridSpec)),
    ("problem", ProblemSpec, [k for k in _owned(ProblemSpec) if k[0] != "dim"]),  # dim from [grid]
    ("potentials", None, (
        ("delta", "delta", "float", MISSING),
        ("mode", "mode", "str", "periodic"),
        ("tail_tol", "tail_tol", "float", 1e-2),
    )),
    ("solver", SolveOptions, _owned(SolveOptions)),
    ("sweep", None, (("mu_values", "mu_values", "list[float]", MISSING),)),
    ("pohozaev", None, (
        ("pohozaev_field", "field", "str | None", None),
        ("pohozaev_bubble", "bubble", "bool", False),
        ("bubble_scale", "bubble_scale", "float", 1.0),
    )),
    ("output", None, (("out_dir", "dir", "str", "out"),)),
)
# sections that may be absent, leaving RunConfig's defaults; written only when set
_OPTIONAL = {
    "sweep": lambda cfg: cfg.mu_values is not None,
    "pohozaev": lambda cfg: cfg.pohozaev_field is not None or cfg.pohozaev_bubble,
}
# the (V1, V2, lambda) sections, written after [potentials]
_POTENTIALS = {p: (f"{p}.v1", f"{p}.v2", f"{p}.lambda") for p in ("potential", "reference")}
_SECTIONS = {s for s, _, _ in _SCHEMA}.union(*_POTENTIALS.values())
_TRUE, _FALSE = ("true", "yes", "1", "on"), ("false", "no", "0", "off")


def _value(text: str, kind: str, name: str):
    """The value of key ``name`` as the type its annotation ``kind`` names."""
    kind = kind.removesuffix(" | None")
    if kind == "list[float]":
        items = [t.strip() for t in text.split(",") if t.strip()]
        if not items:
            raise ConfigError(f"{name} must be non-empty")
        return [_value(t, "float", name) for t in items]
    if kind == "float":
        try:
            x = float(text)
        except ValueError:
            x = math.nan
        if not math.isfinite(x):
            raise ConfigError(f"{name} must be a finite number, got {text!r}")
        return x
    if kind == "int":
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{name} must be an integer, got {text!r}") from None
    if kind == "bool":
        if text.strip().lower() not in _TRUE + _FALSE:
            raise ConfigError(f"{name} must be a boolean, got {text!r}")
        return text.strip().lower() in _TRUE
    return text


def _text(value, kind: str) -> str | None:
    """The canonical text of a value of annotation ``kind``; None leaves out a None or False."""
    if value is None or value is False:
        return None
    kind = kind.removesuffix(" | None")
    if kind == "float":
        return fmt_float(value)
    if kind == "list[float]":
        return ", ".join(map(fmt_float, value))
    return str(value).lower() if kind == "bool" else str(value)


def _read(parser: configparser.ConfigParser, section: str, keys) -> dict:
    """{field: value} for one section's keys; an absent section reads as its defaults."""
    given = dict(parser.items(section)) if parser.has_section(section) else {}
    values = {}
    for field, key, kind, default in keys:
        if key in given:
            values[field] = _value(given.pop(key), kind, f"{section}.{key}")
        elif default is not MISSING:
            values[field] = default
        else:
            raise ConfigError(f"missing required key {section}.{key}")
    if given:
        raise ConfigError(f"unknown key {section}.{min(given)}")
    return values


def _potentials(parser: configparser.ConfigParser, prefix: str) -> tuple:
    """The (V1, V2, lambda) definitions in the sections ``_POTENTIALS[prefix]``."""
    defs = []
    for section in _POTENTIALS[prefix]:
        if not parser.has_section(section):
            raise ConfigError(f"missing section [{section}]")
        kind = parser.get(section, "kind", fallback=None)
        if kind is not None and kind not in KIND_PARAMS:
            raise ConfigError(f"{section}.kind must be one of {sorted(KIND_PARAMS)}, got {kind!r}")
        names = KIND_PARAMS.get(kind, ())
        keys = (("kind", "kind", "str", MISSING), *((n, n, "float", MISSING) for n in names))
        values = _read(parser, section, keys)
        try:
            defs.append(PotentialDef(kind, tuple(values[n] for n in names)))
        except ValueError as exc:
            raise ConfigError(f"[{section}]: {exc}") from None
    return tuple(defs)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document."""
    parser = configparser.ConfigParser(  # no header names section "", so [DEFAULT] is unknown
        interpolation=None, inline_comment_prefixes=("#",), default_section=""
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    for section in ("grid", "problem", "potentials"):
        if not parser.has_section(section):
            raise ConfigError(f"missing section [{section}]")

    own = {}
    for section, cls, keys in _SCHEMA:
        if section in _OPTIONAL and not parser.has_section(section):
            continue
        values = _read(parser, section, keys)
        if cls is None:
            own.update(values)
            continue
        try:  # the owning types reject values with ValueError
            dim = {"dim": own["grid"].dim} if cls is ProblemSpec else {}
            own[section] = cls(**dim, **values)
        except ValueError as exc:
            raise ConfigError(f"[{section}]: {exc}") from None
    refs = any(s in _POTENTIALS["reference"] for s in parser.sections())  # all three or none
    reference_defs = _potentials(parser, "reference") if refs else None
    cfg = RunConfig(pot_defs=_potentials(parser, "potential"), reference_defs=reference_defs, **own)

    if not 0.0 < cfg.delta < 1.0:
        raise ConfigError(f"potentials.delta must lie in (0, 1), got {cfg.delta}")
    if cfg.mode not in VALIDATION_MODES:
        raise ConfigError(
            f"potentials.mode must be one of {sorted(VALIDATION_MODES)}, got {cfg.mode!r}"
        )
    if not cfg.tail_tol > 0:
        raise ConfigError(f"potentials.tail_tol must be positive, got {cfg.tail_tol}")
    if cfg.solver.init == "file" and cfg.solver.init_path is None:
        raise ConfigError("solver.init = file requires solver.init_file")
    if cfg.solver.init != "file" and cfg.solver.init_path is not None:
        raise ConfigError("solver.init_file is read only with solver.init = file")
    mus = cfg.mu_values or []
    if any(m < 0 for m in mus):
        raise ConfigError("sweep.mu_values must be nonnegative")
    if any(b <= a for a, b in zip(mus, mus[1:])):
        raise ConfigError("sweep.mu_values must be strictly increasing")
    if not cfg.bubble_scale > 0:
        raise ConfigError(f"pohozaev.bubble_scale must be positive, got {cfg.bubble_scale}")
    if parser.has_section("pohozaev") and not _OPTIONAL["pohozaev"](cfg):
        raise ConfigError("pohozaev section needs either 'field' or 'bubble = true'")
    return cfg


def _potential_rows(d: PotentialDef) -> list[tuple[str, str]]:
    if d.kind not in KIND_PARAMS:
        raise ConfigError(f"potential kind {d.kind!r} has no config representation")
    return [("kind", d.kind), *zip(KIND_PARAMS[d.kind], map(fmt_float, d.params))]


def canonical_config(cfg: RunConfig) -> str:
    """Serialize to the canonical form (fixed section and key order)."""
    sections = []
    for section, cls, keys in _SCHEMA:
        owner = cfg if cls is None else getattr(cfg, section)
        if section not in _OPTIONAL or _OPTIONAL[section](cfg):
            texts = ((key, _text(getattr(owner, field), kind)) for field, key, kind, _ in keys)
            sections.append((section, [(k, t) for k, t in texts if t is not None]))
        if section == "potentials":
            for p, defs in (("potential", cfg.pot_defs), ("reference", cfg.reference_defs)):
                if defs is not None:
                    sections += [(s, _potential_rows(d)) for s, d in zip(_POTENTIALS[p], defs)]
    return "\n".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in rows) for section, rows in sections
    )
