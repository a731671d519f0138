"""Opt-in pytest plugin that logs the exact bits of every solve, estimate and validation.

    PYTHONPATH=src:tests python -m pytest -q -p bitlog --bitlog=bits.jsonl

(Write ``--bitlog=PATH`` as one argument: pytest takes a separate ``PATH`` that
exists for a test path when it picks its root directory, and a log file outside
the checkout then prefixes every test id with the checkout's name.)

While the suite runs, every result of ``minimize_ground_state``,
``nonneg_refine``, ``estimate_sobolev_constant`` and ``pohozaev_residual`` is
recorded as one JSON line: the test that produced it, the call's index within
that test, ``float.hex`` of the energy and the gradient norm, the iteration count
and the flags of a solve or a refine, of the estimate, or of ``lhs``, ``rhs`` and
``grad_norm`` of a Pohozaev balance.  Every ``validate_assumptions`` report is recorded too: its
mode and, per check, the name, ``passed``, ``float.hex`` of the worst value, the
node and the note.  Validations are indexed apart from the other results, so a
change that validates more or less often leaves the results' indices alone.
A call that raises records the exception's type.  Only outermost calls are
recorded: a wrapped call made inside another wrapped call (the solves of a
``nonneg_refine``) is neither logged nor indexed, so a change to how a refine
reaches its result leaves the log's records as they are.
Two logs of the same suite, run on two versions of the code, are identical
exactly when every result kept every bit, so ``diff`` compares them.  A change
that moves results by rounding is compared within a tolerance instead:

    python tests/bitlog.py PARENT.jsonl CHANGE.jsonl --rtol 1e-9

matches records by (test, call, fn), prints how many kept their bits, the
largest relative move of each float field and the changed iteration counts, and
exits 1 if a record is missing on either side, a float moved by more than
``rtol``, or ``converged``, ``failure`` or ``raised`` changed.  A solve's
gradient norm is the residual it stopped at, so only ``converged`` bounds it.

Without ``-p bitlog`` the plugin is not loaded and the suite is unchanged.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import sys

_WRAPPED = {
    "csgs.solver": ("minimize_ground_state", "nonneg_refine", "estimate_sobolev_constant"),
    "csgs.diagnostics": ("pohozaev_residual",),
    "csgs.potentials": ("validate_assumptions",),
}
FLOATS = ("energy", "grad_norm", "estimate", "lhs", "rhs")
FLAGS = ("converged", "failure", "raised")
# a solve's gradient norm is the residual it stopped at, below its tolerance exactly when
# ``converged`` says so, and a refine's is its final projection's; a results change moves
# both freely, so ``rtol`` does not bound them
RESIDUALS = {("minimize_ground_state", "grad_norm"), ("nonneg_refine", "grad_norm")}


def pytest_addoption(parser):
    parser.addoption("--bitlog", metavar="PATH", default=None,
                     help="write the bits of every solve, Sobolev estimate, Pohozaev balance "
                          "and assumption validation to PATH")


def _describe(name, result):
    if name == "estimate_sobolev_constant":
        return {"estimate": float.hex(result)}
    if name == "pohozaev_residual":
        return {k: float.hex(getattr(result, k)) for k in ("lhs", "rhs", "grad_norm")}
    if name == "validate_assumptions":
        checks = [{"name": c.name, "passed": c.passed, "worst": float.hex(float(c.worst_value)),
                   "node": c.worst_node, "note": c.note} for c in result.checks]
        return {"mode": result.mode, "checks": checks}
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
        self.depth = 0  # wrapped calls in progress; only the outermost is logged

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def logged(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            test = os.environ.get("PYTEST_CURRENT_TEST", "").rsplit(" (", 1)[0]
            counter = (test, name == "validate_assumptions")
            index = self.calls[counter] = self.calls.get(counter, -1) + 1
            record = {"test": test, "call": index, "fn": name}
            self.depth += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record["raised"] = type(exc).__name__
                self.records.append(record)
                raise
            finally:
                self.depth -= 1
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
            for record in sorted(self.records, key=lambda r: (r["test"], r["call"], r["fn"])):
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


def _load(path):
    with open(path, encoding="utf-8") as fh:
        records = (json.loads(line) for line in fh if line.strip())
        return {(r["test"], r["call"], r["fn"]): r for r in records}


def _relative_move(old, new):
    """|new - old| / |old| of two ``float.hex`` strings; infinite for a move off 0, inf or NaN."""
    if old == new:
        return 0.0
    a, b = float.fromhex(old), float.fromhex(new)
    move = abs(b - a) / abs(a) if a else math.inf
    return move if math.isfinite(move) else math.inf


def compare(parent, change, rtol):
    """Print how ``change``'s records differ from ``parent``'s; False if they differ beyond
    ``rtol``, in a flag, or in which records there are."""
    ok = True
    for side, keys in (("change", parent.keys() - change.keys()),
                       ("parent", change.keys() - parent.keys())):
        for key in sorted(keys):
            print(f"missing from the {side}: {key}")
            ok = False
    common = sorted(parent.keys() & change.keys())
    moved = [key for key in common if parent[key] != change[key]]
    print(f"{len(common)} records matched: {len(common) - len(moved)} identical, "
          f"{len(moved)} moved")
    for fn in sorted({key[2] for key in common}):
        for field in FLOATS:
            moves = [(_relative_move(parent[k][field], change[k][field]), k) for k in common
                     if k[2] == fn and field in parent[k] and field in change[k]]
            if not moves:
                continue
            worst, key = max(moves)
            held = (fn, field) not in RESIDUALS
            print(f"{fn} {field}: {sum(m > 0.0 for m, _ in moves)} of {len(moves)} moved, "
                  f"largest relative move {worst:.3g}" + (f" at {key[0]}[{key[1]}]" if worst else "")
                  + ("" if held else " (a stopping residual, not held to rtol)"))
            ok = ok and (worst <= rtol or not held)
    counted = [k for k in common if "iterations" in parent[k] and "iterations" in change[k]]
    steps = [(k, parent[k]["iterations"], change[k]["iterations"]) for k in counted
             if parent[k]["iterations"] != change[k]["iterations"]]
    if counted:
        print(f"iterations: {len(steps)} of {len(counted)} changed, in total "
              f"{sum(parent[k]['iterations'] for k in counted)} -> "
              f"{sum(change[k]['iterations'] for k in counted)}")
    for key, old, new in steps:
        print(f"iterations {old} -> {new} at {key[0]}[{key[1]}]")
    for key in common:
        for flag in FLAGS:
            if parent[key].get(flag) != change[key].get(flag):
                print(f"{flag} {parent[key].get(flag)!r} -> {change[key].get(flag)!r} "
                      f"at {key[0]}[{key[1]}]")
                ok = False
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description="Compare two bit logs within a relative tolerance.")
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--rtol", type=float, default=0.0)
    args = ap.parse_args(argv)
    return 0 if compare(_load(args.parent), _load(args.change), args.rtol) else 1


if __name__ == "__main__":
    sys.exit(main())
