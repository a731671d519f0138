"""Opt-in pytest plugin that logs the exact bits of every solve and estimate.

    PYTHONPATH=src:tests python -m pytest -q -p bitlog --bitlog bits.jsonl

While the suite runs, every result of ``minimize_ground_state``,
``estimate_sobolev_constant`` and ``pohozaev_residual`` is recorded as one JSON
line: the test that produced it, the call's index within that test,
``float.hex`` of the energy and the gradient norm, the iteration count and the
flags of a solve, of the estimate, or of ``lhs``, ``rhs`` and ``grad_norm`` of a
Pohozaev balance.  A call that raises records the exception's type.
Two logs of the same suite, run on two versions of the code, are identical
exactly when every result kept every bit, so ``diff`` compares them.

Without ``-p bitlog`` the plugin is not loaded and the suite is unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys

_WRAPPED = {
    "csgs.solver": ("minimize_ground_state", "estimate_sobolev_constant"),
    "csgs.diagnostics": ("pohozaev_residual",),
}


def pytest_addoption(parser):
    parser.addoption("--bitlog", metavar="PATH", default=None,
                     help="write the bits of every solve, Sobolev estimate and Pohozaev balance "
                          "to PATH")


def _describe(name, result):
    if name == "estimate_sobolev_constant":
        return {"estimate": float.hex(result)}
    if name == "pohozaev_residual":
        return {k: float.hex(getattr(result, k)) for k in ("lhs", "rhs", "grad_norm")}
    return {
        "energy": float.hex(result.energy),
        "grad_norm": float.hex(result.grad_norm),
        "iterations": result.iterations,
        "converged": result.converged,
        "failure": result.failure,
    }


def _rebind(name, old, new):
    """Point every loaded module's global ``name`` that is ``old`` at ``new``."""
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get(name) is old:
            setattr(module, name, new)


class BitLog:
    def __init__(self, path):
        self.path = path
        self.records = []
        self.calls = {}
        self.originals = {}

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def logged(*args, **kwargs):
            test = os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" (", 1)[0]
            index = self.calls[test] = self.calls.get(test, -1) + 1
            record = {"test": test, "call": index, "fn": name}
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record["raised"] = type(exc).__name__
                self.records.append(record)
                raise
            record.update(_describe(name, result))
            self.records.append(record)
            return result

        return logged

    def install(self):
        for module, names in _WRAPPED.items():
            for name in names:
                original = getattr(importlib.import_module(module), name)
                wrapper = self._wrap(name, original)
                self.originals[name] = (original, wrapper)
                # rebind every loaded module's reference, the package's re-export included
                _rebind(name, original, wrapper)

    def uninstall(self):
        for name, (original, wrapper) in self.originals.items():
            _rebind(name, wrapper, original)

    def write(self):
        with open(self.path, "w", encoding="utf-8") as fh:
            for record in sorted(self.records, key=lambda r: (r["test"], r["call"])):
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def pytest_configure(config):
    path = config.getoption("bitlog")
    if path is not None:
        log = BitLog(path)
        log.install()
        config._bitlog = log


def pytest_unconfigure(config):
    log = getattr(config, "_bitlog", None)
    if log is not None:
        log.uninstall()
        log.write()
