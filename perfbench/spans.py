"""Span tracing of ``csgs`` from outside, and the per-layer metrics derived from it.

:class:`Tracer` wraps every public function of the layer modules and rebinds
each name wherever a ``csgs`` module holds it (``csgs.functional.apply_laplacian``,
``csgs.solver.pair_invariants``, the package namespace, ...), so calls between
modules and within one module all pass through a wrapper.  A wrapper records one
span: name, start, end and the span that was open when it was entered.  Spans are
kept in flat arrays in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = (
    "grid", "functional", "nehari", "solver", "potentials",
    "diagnostics", "fieldio", "config", "cli",
)

# (metric name, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = [
    ("grid.apply_laplacian.calls", "count", "lower"),
    ("grid.apply_laplacian.ms", "ms/call", "lower"),
    ("grid.lp_integral.calls", "count", "lower"),
    ("grid.lp_integral.ms", "ms/call", "lower"),
    ("grid.spectral_partials.calls", "count", "lower"),
    ("grid.translate_lattice.calls", "count", "lower"),
    ("functional.pair_invariants.calls", "count", "lower"),
    ("functional.pair_invariants.ms", "ms/call", "lower"),
    ("functional.energy_gradient.calls", "count", "lower"),
    ("functional.energy_gradient.ms", "ms/call", "lower"),
    ("functional.odd_power.ms", "ms/call", "lower"),
    ("nehari.fibering_scale.calls", "count", "lower"),
    ("nehari.fibering_scale.us", "us/call", "lower"),
    ("nehari.fibering_scale.root_iters", "count", "lower"),
    ("solver.iterations", "count", "lower"),
    ("solver.ms_per_iter", "ms", "lower"),
    ("solver.laplacians_per_iter", "count", "lower"),
    ("solver.backtracks_per_iter", "count", "lower"),
    ("solver.self_s", "s", "lower"),
    ("solver.sobolev_iters", "count", "lower"),
    ("solver.sobolev_s", "s", "lower"),
    ("potentials.sample_potentials.ms", "ms/call", "lower"),
    ("potentials.validate_assumptions.ms", "ms/call", "lower"),
    ("diagnostics.pohozaev_residual.ms", "ms/call", "lower"),
    ("diagnostics.nonexistence_certificate.ms", "ms/call", "lower"),
    ("fieldio.write_field.ms", "ms/call", "lower"),
    ("fieldio.read_field.ms", "ms/call", "lower"),
    ("fieldio.write_report_csv.ms", "ms/call", "lower"),
    ("config.parse_config.ms", "ms/call", "lower"),
]

MINIMIZE = "solver.minimize_ground_state"
SOBOLEV = "solver.estimate_sobolev_constant"
ROOT = "nehari.fibering_scale_from_invariants"
# result attributes worth keeping with a span: iterations of a solve or a root
_RESULT_COUNT = {MINIMIZE: "iterations", ROOT: "iterations"}


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("i")   # iterations for solves and roots, else -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        attr = _RESULT_COUNT.get(name)
        stack, clock = self._stack, time.perf_counter
        ids, parents, starts, ends, counts = (
            self.name_id, self.parent, self.start, self.end, self.count,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            counts.append(-1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if attr is not None:
                counts[idx] = int(getattr(result, attr))
            return result

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions and rebind them in every csgs module."""
        if not self._bindings:
            modules = [importlib.import_module("csgs")]
            modules += [importlib.import_module(f"csgs.{layer}") for layer in LAYERS]
            wrappers = {}
            for mod in modules[1:]:
                layer = mod.__name__.split(".")[-1]
                for attr, obj in vars(mod).items():
                    if attr.startswith("_") or not inspect.isfunction(obj):
                        continue
                    if obj.__module__ == mod.__name__:
                        wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
            for mod in modules:
                for attr, obj in vars(mod).items():
                    if id(obj) in wrappers:
                        self._bindings.append((mod, attr, obj, wrappers[id(obj)]))
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore the original functions; spans recorded so far are kept."""
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def dump(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            count=np.frombuffer(self.count, dtype=np.int32),
        )

    def per_layer(self, ops: int) -> dict[str, float]:
        """The PER_LAYER metrics over all spans, counts taken per operation."""
        names = self.names
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self)
        root_iters = 0
        solve_iters = solve_time = solve_self = 0.0
        in_solve_lap = in_solve_trials = in_solve_shifts = 0
        sobolev_iters = sobolev_time = 0.0

        # a span is appended before any span it causes, so one forward pass
        # knows each span's parent and the solve or polish enclosing it
        inside = [None] * len(self)
        for i in range(len(self)):
            name = names[self.name_id[i]]
            par = self.parent[i]
            up = inside[par] if par >= 0 else None
            parent_name = names[self.name_id[par]] if par >= 0 else None
            inside[i] = name if name in (MINIMIZE, SOBOLEV) else up
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            busy[name] += dur
            if par >= 0:
                child_time[par] += dur
            if name == ROOT:
                root_iters += self.count[i]
            elif name == MINIMIZE:
                solve_iters += self.count[i]
                solve_time += dur
            elif name == SOBOLEV:
                sobolev_time += dur
            if up == MINIMIZE:
                if name == "grid.apply_laplacian":
                    in_solve_lap += 1
                if parent_name == MINIMIZE:
                    if name == "functional.pair_invariants":
                        in_solve_trials += 1
                    elif name == "grid.translate_lattice":
                        in_solve_shifts += 1
            if up == SOBOLEV and name == "grid.spectral_partials":
                sobolev_iters += 1
        for i in range(len(self)):
            if names[self.name_id[i]] == MINIMIZE:
                solve_self += (self.end[i] - self.start[i]) - child_time[i]

        def per_call_ms(name: str, scale: float = 1e3) -> float:
            return busy[name] / calls[name] * scale if calls[name] else 0.0

        solves = calls[MINIMIZE]
        # a solve evaluates pair_invariants once for its start, once per trial
        # step and once per attempted recentering (two lattice shifts, u and v)
        trials = in_solve_trials - solves - in_solve_shifts // 2
        iters = solve_iters + sobolev_iters
        return {
            "grid.apply_laplacian.calls": calls["grid.apply_laplacian"] / ops,
            "grid.apply_laplacian.ms": per_call_ms("grid.apply_laplacian"),
            "grid.lp_integral.calls": calls["grid.lp_integral"] / ops,
            "grid.lp_integral.ms": per_call_ms("grid.lp_integral"),
            "grid.spectral_partials.calls": calls["grid.spectral_partials"] / ops,
            "grid.translate_lattice.calls": calls["grid.translate_lattice"] / ops,
            "functional.pair_invariants.calls": calls["functional.pair_invariants"] / ops,
            "functional.pair_invariants.ms": per_call_ms("functional.pair_invariants"),
            "functional.energy_gradient.calls": calls["functional.energy_gradient"] / ops,
            "functional.energy_gradient.ms": per_call_ms("functional.energy_gradient"),
            "functional.odd_power.ms": per_call_ms("functional.odd_power"),
            "nehari.fibering_scale.calls": calls[ROOT] / ops,
            "nehari.fibering_scale.us": per_call_ms(ROOT, 1e6),
            "nehari.fibering_scale.root_iters": root_iters / calls[ROOT] if calls[ROOT] else 0.0,
            "solver.iterations": iters / ops,
            "solver.ms_per_iter": (solve_time + sobolev_time) / iters * 1e3 if iters else 0.0,
            "solver.laplacians_per_iter": in_solve_lap / solve_iters if solve_iters else 0.0,
            "solver.backtracks_per_iter": (trials - solve_iters) / solve_iters if solve_iters else 0.0,
            "solver.self_s": solve_self / ops,
            "solver.sobolev_iters": sobolev_iters / ops,
            "solver.sobolev_s": sobolev_time / ops,
            "potentials.sample_potentials.ms": per_call_ms("potentials.sample_potentials"),
            "potentials.validate_assumptions.ms": per_call_ms("potentials.validate_assumptions"),
            "diagnostics.pohozaev_residual.ms": per_call_ms("diagnostics.pohozaev_residual"),
            "diagnostics.nonexistence_certificate.ms": per_call_ms(
                "diagnostics.nonexistence_certificate"
            ),
            "fieldio.write_field.ms": per_call_ms("fieldio.write_field"),
            "fieldio.read_field.ms": per_call_ms("fieldio.read_field"),
            "fieldio.write_report_csv.ms": per_call_ms("fieldio.write_report_csv"),
            "config.parse_config.ms": per_call_ms("config.parse_config"),
        }
